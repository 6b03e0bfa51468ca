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

(* Calls [f] on the three-level shapes with [n_l] nodes per full leaf,
   largest [l_t] first (dense-first: fewest pods touched), until [f]
   returns [true]; returns whether it did. *)
let iter_three_level topo ~size ~n_l f =
  let m2 = Topology.m2 topo and m3 = Topology.m3 topo in
  let rec from l_t =
    l_t >= 1
    &&
    let n_t = l_t * n_l in
    let t = size / n_t in
    let n_rt = size mod n_t in
    let pods_needed = t + if n_rt > 0 then 1 else 0 in
    let single_pod = t = 1 && n_rt = 0 in
    (* The remainder tree itself must fit in a pod: it has l_rt full
       leaves plus possibly a remainder leaf; l_rt < l_t <= m2 always
       holds, so it fits whenever full trees do. *)
    (t >= 1 && pods_needed <= m3 && (not single_pod)
    && f
         {
           n_l3 = n_l;
           l_t3 = l_t;
           t;
           n_rt;
           l_rt = n_rt / n_l;
           n_rl3 = n_rt mod n_l;
         })
    || from (l_t - 1)
  in
  size > 0 && n_l >= 1 && n_l <= Topology.m1 topo && from (min m2 (size / n_l))

let three_level topo ~size ~n_l =
  let shapes = ref [] in
  ignore
    (iter_three_level topo ~size ~n_l (fun s ->
         shapes := s :: !shapes;
         false));
  List.rev !shapes

let three_level_all topo ~size f =
  let rec from n_l = n_l >= 1 && (iter_three_level topo ~size ~n_l f || from (n_l - 1)) in
  ignore (from (Topology.m1 topo))
