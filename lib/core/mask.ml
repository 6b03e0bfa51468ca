(* Bit-parallel count over bits 0 .. 61 (the constants are the usual
   64-bit ones cut to 62 bits; the byte sums never exceed 62, so the
   multiply's wrap at 63 bits keeps the top byte exact), plus the sign
   bit 62. *)
let popcount x =
  let y = x land 0x3FFF_FFFF_FFFF_FFFF in
  let y = y - ((y lsr 1) land 0x1555_5555_5555_5555) in
  let y = (y land 0x3333_3333_3333_3333) + ((y lsr 2) land 0x3333_3333_3333_3333) in
  let y = (y + (y lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  ((y * 0x0101_0101_0101_0101) lsr 56) + (if x < 0 then 1 else 0)

let full n = (1 lsl n) - 1
let mem mask i = mask land (1 lsl i) <> 0

let to_list mask =
  let rec go m acc =
    if m = 0 then List.rev acc
    else begin
      let lsb = m land -m in
      let rec idx v acc = if v = 1 then acc else idx (v lsr 1) (acc + 1) in
      go (m land (m - 1)) (idx lsb 0 :: acc)
    end
  in
  go mask []

let of_list l = List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 l
(* Fills a presized array, shifting the mask right past each set bit
   ([lsr], so negative masks terminate too). *)
let to_array mask =
  let a = Array.make (popcount mask) 0 in
  let m = ref mask and i = ref 0 in
  for k = 0 to Array.length a - 1 do
    while !m land 1 = 0 do
      m := !m lsr 1;
      incr i
    done;
    a.(k) <- !i;
    m := !m lsr 1;
    incr i
  done;
  a

let take_lowest mask k =
  let n = popcount mask in
  if n < k then invalid_arg "Mask.take_lowest: not enough bits";
  if n = k then mask
  else
  let rec go m taken acc =
    if taken = k then acc
    else begin
      let lsb = m land -m in
      go (m land (m - 1)) (taken + 1) (acc lor lsb)
    end
  in
  go mask 0 0

let take_preferring mask ~prefer k =
  if popcount mask < k then invalid_arg "Mask.take_preferring: not enough bits";
  let preferred = mask land prefer in
  let from_pref = min k (popcount preferred) in
  let first = take_lowest preferred from_pref in
  let rest = take_lowest (mask land lnot preferred) (k - from_pref) in
  first lor rest

let subset a ~of_ = a land lnot of_ = 0
