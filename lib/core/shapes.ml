open Fattree

type two_level = { n_l : int; l_t : int; n_rl : int }

type three_level = {
  n_l3 : int;
  l_t3 : int;
  t : int;
  n_rt : int;
  l_rt : int;
  n_rl3 : int;
}

let two_level topo ~size =
  let m1 = Topology.m1 topo and m2 = Topology.m2 topo in
  if size <= 0 then []
  else begin
    let shapes = ref [] in
    for n_l = 1 to min m1 size do
      let l_t = size / n_l in
      let n_rl = size mod n_l in
      let leaves_needed = l_t + if n_rl > 0 then 1 else 0 in
      if l_t >= 1 && leaves_needed <= m2 then
        shapes := { n_l; l_t; n_rl } :: !shapes
    done;
    (* Prepending while ascending in n_l leaves the largest n_l first:
       dense-first. *)
    !shapes
  end

let three_level topo ~size ~n_l =
  let m2 = Topology.m2 topo and m3 = Topology.m3 topo in
  if size <= 0 || n_l < 1 || n_l > Topology.m1 topo then []
  else begin
    let shapes = ref [] in
    for l_t = 1 to min m2 (size / n_l) do
      let n_t = l_t * n_l in
      let t = size / n_t in
      let n_rt = size mod n_t in
      let pods_needed = t + if n_rt > 0 then 1 else 0 in
      let single_pod = t = 1 && n_rt = 0 in
      (* The remainder tree itself must fit in a pod: it has l_rt full
         leaves plus possibly a remainder leaf; l_rt < l_t <= m2 always
         holds, so it fits whenever full trees do. *)
      if t >= 1 && pods_needed <= m3 && not single_pod then begin
        let l_rt = n_rt / n_l in
        let n_rl3 = n_rt mod n_l in
        shapes := { n_l3 = n_l; l_t3 = l_t; t; n_rt; l_rt; n_rl3 } :: !shapes
      end
    done;
    (* Prepending while ascending in l_t leaves the largest l_t first:
       dense-first (fewest pods touched). *)
    !shapes
  end

let three_level_all topo ~size =
  let m1 = Topology.m1 topo in
  let acc = ref [] in
  for n_l = 1 to m1 do
    acc := three_level topo ~size ~n_l @ !acc
  done;
  (* [acc] now lists n_l = m1 first (dense-first). *)
  !acc
