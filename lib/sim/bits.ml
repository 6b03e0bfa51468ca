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
