(* Tests for Sim.Bitset. *)

open Sim

(* Members in increasing order, walked with [next_set_from]. *)
let members b =
  let rec walk i acc =
    match Bitset.next_set_from b i with
    | Some j -> walk (j + 1) (j :: acc)
    | None -> List.rev acc
  in
  walk 0 []

let test_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check (list int)) "empty" [] (members b);
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  Alcotest.(check bool) "mem 0" true (Bitset.mem b 0);
  Alcotest.(check bool) "mem 63 (word boundary)" true (Bitset.mem b 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem b 64);
  Alcotest.(check bool) "not mem 50" false (Bitset.mem b 50);
  Alcotest.(check (list int)) "members" [ 0; 63; 64; 99 ] (members b);
  Bitset.remove b 63;
  Alcotest.(check bool) "removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "members after remove" [ 0; 64; 99 ] (members b)

let test_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitset: index 10 out of range [0, 10)") (fun () ->
      Bitset.add b 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index -1 out of range [0, 10)") (fun () ->
      ignore (Bitset.mem b (-1)))

(* [fill] sets exactly the universe, up to the ragged last word;
   removing every member empties the set again. *)
let test_fill_clear () =
  let b = Bitset.create 130 in
  Bitset.fill b;
  Alcotest.(check (list int)) "full" (List.init 130 Fun.id) (members b);
  Alcotest.(check bool) "mem last" true (Bitset.mem b 129);
  for i = 0 to 129 do
    Bitset.remove b i
  done;
  Alcotest.(check (list int)) "cleared" [] (members b)

let test_copy_equal () =
  let a = Bitset.of_array 50 [| 5; 10 |] in
  let b = Bitset.copy a in
  Alcotest.(check (list int)) "equal" (members a) (members b);
  Bitset.add b 11;
  Alcotest.(check (list int)) "copy independent" [ 5; 10 ] (members a)

let test_next_set_from_walk () =
  (* The walk must agree with a mem loop, including across word
     boundaries (62/63/64) and in the ragged last word. *)
  let xs = [ 0; 62; 63; 64; 126; 127; 199 ] in
  let b = Bitset.of_array 200 (Array.of_list xs) in
  Alcotest.(check (list int))
    "walk = mem loop"
    (List.filter (Bitset.mem b) (List.init 200 Fun.id))
    (members b);
  Alcotest.(check (list int)) "walk = members" xs (members b);
  Alcotest.(check (option int)) "from inside a run" (Some 64)
    (Bitset.next_set_from b 64);
  Alcotest.(check (option int)) "past the last member" None
    (Bitset.next_set_from b 200);
  Alcotest.(check (list int)) "empty set" [] (members (Bitset.create 100))

let test_intersects_array () =
  let b = Bitset.of_array 200 [| 63; 64; 199 |] in
  Alcotest.(check bool) "hit" true (Bitset.intersects_array b [| 5; 64 |]);
  Alcotest.(check bool) "miss" false (Bitset.intersects_array b [| 5; 65 |]);
  Alcotest.(check bool) "empty array" false (Bitset.intersects_array b [||]);
  Alcotest.check_raises "bounds checked"
    (Invalid_argument "Bitset: index 200 out of range [0, 200)") (fun () ->
      ignore (Bitset.intersects_array b [| 200 |]))

let test_of_array () =
  let b = Bitset.of_array 100 [| 9; 3; 3; 77 |] in
  Alcotest.(check (list int)) "members" [ 3; 9; 77 ] (members b)

let gen_members = QCheck2.Gen.(array (int_range 0 199))

let prop_walk_matches_members =
  QCheck2.Test.make ~name:"next_set_from walks members"
    ~count:200 gen_members (fun xs ->
      let b = Bitset.of_array 200 xs in
      members b = List.sort_uniq compare (Array.to_list xs))

let prop_intersects_array_matches_exists =
  QCheck2.Test.make ~name:"intersects_array = Array.exists mem" ~count:200
    QCheck2.Gen.(pair gen_members (array_size (int_range 0 20) (int_range 0 199)))
    (fun (xs, probe) ->
      let b = Bitset.of_array 200 xs in
      Bitset.intersects_array b probe = Array.exists (Bitset.mem b) probe)

let suite =
  [
    Alcotest.test_case "basic membership" `Quick test_basic;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "fill and clear" `Quick test_fill_clear;
    Alcotest.test_case "copy and equal" `Quick test_copy_equal;
    Alcotest.test_case "next_set_from walk" `Quick test_next_set_from_walk;
    Alcotest.test_case "intersects_array" `Quick test_intersects_array;
    Alcotest.test_case "of_array" `Quick test_of_array;
    QCheck_alcotest.to_alcotest prop_walk_matches_members;
    QCheck_alcotest.to_alcotest prop_intersects_array_matches_exists;
  ]
