(* Tests for allocation-shape enumeration. *)

open Fattree
open Jigsaw_core

let t8 = Topology.of_radix 8 (* m1 = m2 = 4, m3 = 8 *)

(* Every shape [Shapes.three_level_all] walks, in its order. *)
let walk_all topo ~size =
  let shapes = ref [] in
  Shapes.three_level_all topo ~size (fun s ->
      shapes := s :: !shapes;
      false);
  List.rev !shapes

let test_two_level_exact_decomposition () =
  List.iter
    (fun size ->
      List.iter
        (fun (s : Shapes.two_level) ->
          Alcotest.(check int)
            (Printf.sprintf "size %d: l_t*n_l + n_rl" size)
            size
            ((s.l_t * s.n_l) + s.n_rl);
          Alcotest.(check bool) "n_rl < n_l" true (s.n_rl < s.n_l);
          Alcotest.(check bool) "fits pod leaves" true
            (s.l_t + (if s.n_rl > 0 then 1 else 0) <= Topology.m2 t8);
          Alcotest.(check bool) "n_l within leaf" true (s.n_l <= Topology.m1 t8))
        (Shapes.two_level t8 ~size))
    [ 1; 2; 3; 4; 5; 7; 8; 11; 13; 16 ]

let test_two_level_dense_first () =
  match Shapes.two_level t8 ~size:7 with
  | first :: _ -> Alcotest.(check int) "largest n_l first" 4 first.n_l
  | [] -> Alcotest.fail "no shapes for size 7"

let test_two_level_bounds () =
  Alcotest.(check int) "size 0" 0 (List.length (Shapes.two_level t8 ~size:0));
  (* pod capacity is 16; size 17 has no single-pod shape *)
  Alcotest.(check int) "size 17" 0 (List.length (Shapes.two_level t8 ~size:17));
  (* exactly pod-sized: one shape, 4 full leaves *)
  (match Shapes.two_level t8 ~size:16 with
  | [ s ] ->
      Alcotest.(check int) "n_l" 4 s.n_l;
      Alcotest.(check int) "l_t" 4 s.l_t;
      Alcotest.(check int) "n_rl" 0 s.n_rl
  | l -> Alcotest.failf "expected 1 shape, got %d" (List.length l))

let test_three_level_exact_decomposition () =
  List.iter
    (fun size ->
      List.iter
        (fun (s : Shapes.three_level) ->
          let n_t = s.l_t3 * s.n_l3 in
          Alcotest.(check int)
            (Printf.sprintf "size %d: t*n_t + n_rt" size)
            size
            ((s.t * n_t) + s.n_rt);
          Alcotest.(check bool) "n_rt < n_t" true (s.n_rt < n_t);
          Alcotest.(check int) "n_rt decomposition" s.n_rt
            ((s.l_rt * s.n_l3) + s.n_rl3);
          Alcotest.(check bool) "pods fit" true
            (s.t + (if s.n_rt > 0 then 1 else 0) <= Topology.m3 t8))
        (Shapes.three_level t8 ~size ~n_l:4))
    [ 17; 20; 32; 33; 64; 100; 128 ]

let test_three_level_skips_single_pod () =
  (* size 16 with n_l=4 would be t=1, n_rt=0 — a two-level shape. *)
  List.iter
    (fun (s : Shapes.three_level) ->
      Alcotest.(check bool) "spans > 1 pod" true
        (s.t + (if s.n_rt > 0 then 1 else 0) >= 2))
    (Shapes.three_level t8 ~size:16 ~n_l:4)

let test_three_level_all_covers_nl () =
  let shapes = walk_all t8 ~size:30 in
  let nls = List.sort_uniq compare (List.map (fun s -> s.Shapes.n_l3) shapes) in
  Alcotest.(check (list int)) "all n_l present" [ 1; 2; 3; 4 ] nls;
  (* dense first: the first shape has the largest n_l *)
  match shapes with
  | first :: _ -> Alcotest.(check int) "first n_l" 4 first.n_l3
  | [] -> Alcotest.fail "no shapes"

let test_whole_machine () =
  let n = Topology.num_nodes t8 in
  let shapes = Shapes.three_level t8 ~size:n ~n_l:4 in
  Alcotest.(check bool) "whole machine has a shape" true
    (List.exists
       (fun (s : Shapes.three_level) -> s.t = 8 && s.l_t3 = 4 && s.n_rt = 0)
       shapes)

(* The list-building enumeration the lazy walk replaced, kept as the
   reference for its order. *)
let ref_three_level topo ~size ~n_l =
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
      if t >= 1 && pods_needed <= m3 && not single_pod then begin
        let l_rt = n_rt / n_l in
        let n_rl3 = n_rt mod n_l in
        shapes :=
          { Shapes.n_l3 = n_l; l_t3 = l_t; t; n_rt; l_rt; n_rl3 } :: !shapes
      end
    done;
    !shapes
  end

let ref_three_level_all topo ~size =
  let acc = ref [] in
  for n_l = 1 to Topology.m1 topo do
    acc := ref_three_level topo ~size ~n_l @ !acc
  done;
  !acc

(* The lazy walk lists exactly the reference's shapes in the reference's
   order, and per-[n_l] [three_level] its slice, for every size of the
   machine (and the out-of-range ones around it) at radix 8, 12, 18 and
   48.  A walk stopped at its [k]-th shape has called [f] on exactly the
   first [k]. *)
let test_three_level_all_matches_reference () =
  List.iter
    (fun radix ->
      let topo = Topology.of_radix radix in
      let n = Topology.num_nodes topo in
      for size = -1 to n + 1 do
        let want = ref_three_level_all topo ~size in
        let got = walk_all topo ~size in
        if got <> want then
          Alcotest.failf "radix %d size %d: %d shapes walked, reference %d"
            radix size (List.length got) (List.length want);
        for n_l = 0 to Topology.m1 topo + 1 do
          if Shapes.three_level topo ~size ~n_l <> ref_three_level topo ~size ~n_l
          then Alcotest.failf "radix %d size %d n_l %d: three_level differs" radix size n_l
        done;
        let len = List.length want in
        if len > 0 then begin
          let k = 1 + (size mod len) in
          let seen = ref [] in
          Shapes.three_level_all topo ~size (fun s ->
              seen := s :: !seen;
              List.length !seen = k);
          if List.rev !seen <> List.filteri (fun i _ -> i < k) want then
            Alcotest.failf "radix %d size %d: a walk stopped at shape %d saw %d"
              radix size k (List.length !seen)
        end
      done)
    [ 8; 12; 18; 48 ]

let prop_two_level_complete =
  (* Every shape with a given n_l is enumerated exactly once. *)
  QCheck2.Test.make ~name:"two-level shapes unique per n_l" ~count:100
    QCheck2.Gen.(int_range 1 16)
    (fun size ->
      let shapes = Shapes.two_level t8 ~size in
      let nls = List.map (fun s -> s.Shapes.n_l) shapes in
      List.length (List.sort_uniq compare nls) = List.length nls)

let suite =
  [
    Alcotest.test_case "two-level decompositions" `Quick test_two_level_exact_decomposition;
    Alcotest.test_case "two-level dense first" `Quick test_two_level_dense_first;
    Alcotest.test_case "two-level bounds" `Quick test_two_level_bounds;
    Alcotest.test_case "three-level decompositions" `Quick test_three_level_exact_decomposition;
    Alcotest.test_case "three-level skips single pod" `Quick test_three_level_skips_single_pod;
    Alcotest.test_case "three_level_all covers n_l" `Quick test_three_level_all_covers_nl;
    Alcotest.test_case "three_level_all walks the reference order" `Quick
      test_three_level_all_matches_reference;
    Alcotest.test_case "whole machine shape" `Quick test_whole_machine;
    QCheck_alcotest.to_alcotest prop_two_level_complete;
  ]
