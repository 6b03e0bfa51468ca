(* Tests for the small bitmask helpers. *)

open Jigsaw_core

let test_popcount () =
  Alcotest.(check int) "zero" 0 (Mask.popcount 0);
  Alcotest.(check int) "0b1011" 3 (Mask.popcount 0b1011);
  Alcotest.(check int) "full 14" 14 (Mask.popcount (Mask.full 14));
  Alcotest.(check int) "full 62" 62 (Mask.popcount (Mask.full 62));
  Alcotest.(check int) "max_int" 62 (Mask.popcount max_int);
  Alcotest.(check int) "sign bit" 1 (Mask.popcount min_int);
  Alcotest.(check int) "lnot 0" 63 (Mask.popcount (lnot 0))

let test_full () =
  Alcotest.(check int) "full 0" 0 (Mask.full 0);
  Alcotest.(check int) "full 3" 0b111 (Mask.full 3)

let test_mem () =
  Alcotest.(check bool) "bit 1" true (Mask.mem 0b10 1);
  Alcotest.(check bool) "bit 0" false (Mask.mem 0b10 0)

let test_list_roundtrip () =
  Alcotest.(check (list int)) "to_list" [ 0; 2; 5 ] (Mask.to_list 0b100101);
  Alcotest.(check int) "of_list" 0b100101 (Mask.of_list [ 5; 0; 2 ]);
  Alcotest.(check (array int)) "to_array" [| 1; 3 |] (Mask.to_array 0b1010)

let test_take_lowest () =
  Alcotest.(check int) "take 2 of 0b1101" 0b0101 (Mask.take_lowest 0b1101 2);
  Alcotest.(check int) "take 0" 0 (Mask.take_lowest 0b111 0);
  Alcotest.check_raises "too few"
    (Invalid_argument "Mask.take_lowest: not enough bits") (fun () ->
      ignore (Mask.take_lowest 0b1 2))

let test_take_preferring () =
  (* take 3 bits of {0,1,2,4,6} preferring {4,6}: must include 4 and 6. *)
  let r = Mask.take_preferring 0b1010111 ~prefer:0b1010000 3 in
  Alcotest.(check int) "popcount" 3 (Mask.popcount r);
  Alcotest.(check bool) "has 4" true (Mask.mem r 4);
  Alcotest.(check bool) "has 6" true (Mask.mem r 6);
  (* preference exceeds k: lowest k preferred bits *)
  let r2 = Mask.take_preferring 0b111 ~prefer:0b111 2 in
  Alcotest.(check int) "prefers low" 0b011 r2;
  (* no preferred bits available *)
  let r3 = Mask.take_preferring 0b1100 ~prefer:0b01 1 in
  Alcotest.(check int) "falls back" 0b0100 r3

let test_subset () =
  Alcotest.(check bool) "subset" true (Mask.subset 0b0101 ~of_:0b1101);
  Alcotest.(check bool) "not subset" false (Mask.subset 0b0011 ~of_:0b0001);
  Alcotest.(check bool) "empty subset" true (Mask.subset 0 ~of_:0)

let prop_take_lowest_is_subset =
  QCheck2.Test.make ~name:"take_lowest returns k-subset" ~count:300
    QCheck2.Gen.(pair (int_range 0 16383) (int_range 0 14))
    (fun (mask, k) ->
      QCheck2.assume (Mask.popcount mask >= k);
      let r = Mask.take_lowest mask k in
      Mask.popcount r = k && Mask.subset r ~of_:mask)

let prop_take_preferring_takes_preferred =
  QCheck2.Test.make ~name:"take_preferring maximizes preferred overlap" ~count:300
    QCheck2.Gen.(triple (int_range 0 16383) (int_range 0 16383) (int_range 0 14))
    (fun (mask, prefer, k) ->
      QCheck2.assume (Mask.popcount mask >= k);
      let r = Mask.take_preferring mask ~prefer k in
      let want = min k (Mask.popcount (mask land prefer)) in
      Mask.popcount r = k
      && Mask.subset r ~of_:mask
      && Mask.popcount (r land prefer) = want)

(* [to_array] fills a presized array; it must agree with the list
   form on every int, including the empty mask, bit 62 (the sign bit of
   OCaml's 63-bit ints) and negative masks such as [lnot 0], the
   all-ones capability mask [Search] starts from. *)
let prop_to_array_matches_to_list =
  QCheck2.Test.make ~name:"to_array = Array.of_list to_list" ~count:500
    QCheck2.Gen.(
      oneof
        [
          oneofl [ 0; 1 lsl 62; lnot 0; min_int; max_int; lnot 1 ];
          int;
          int_bound 0xFFFFFF;
        ])
    (fun m -> Mask.to_array m = Array.of_list (Mask.to_list m))

(* The bit-parallel count against clearing the lowest bit until none
   is left, over every 63-bit int, negative ones included. *)
let prop_popcount_matches_loop =
  QCheck2.Test.make ~name:"popcount counts every bit" ~count:1000
    QCheck2.Gen.(oneof [ int; map (fun k -> Mask.full (k mod 63)) nat ])
    (fun x ->
      let rec loop x acc = if x = 0 then acc else loop (x land (x - 1)) (acc + 1) in
      Mask.popcount x = loop x 0)

let suite =
  [
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "full" `Quick test_full;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "list roundtrips" `Quick test_list_roundtrip;
    Alcotest.test_case "take_lowest" `Quick test_take_lowest;
    Alcotest.test_case "take_preferring" `Quick test_take_preferring;
    Alcotest.test_case "subset" `Quick test_subset;
    QCheck_alcotest.to_alcotest prop_popcount_matches_loop;
    QCheck_alcotest.to_alcotest prop_take_lowest_is_subset;
    QCheck_alcotest.to_alcotest prop_take_preferring_takes_preferred;
    QCheck_alcotest.to_alcotest prop_to_array_matches_to_list;
  ]
