type t = { n : int; words : int array }

let bits_per_word = 63
let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (words_for n) 0 }

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range [0, %d)" i t.n)

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let fill t =
  let full_words = t.n / bits_per_word in
  Array.fill t.words 0 full_words (lnot 0 land ((1 lsl bits_per_word) - 1));
  let rem = t.n mod bits_per_word in
  if rem > 0 then t.words.(full_words) <- (1 lsl rem) - 1

let copy t = { n = t.n; words = Array.copy t.words }

(* Number of trailing zeros of a non-zero isolated-LSB value: a branchy
   binary reduction over the 63 usable bit positions.  OCaml's native int
   is 63-bit, so the classic 64-bit de Bruijn multiply would wrap; six
   shift/test steps are branch-predictable and allocation-free. *)
let ntz_lsb lsb =
  let v = ref lsb and bit = ref 0 in
  if !v land 0x7FFFFFFF = 0 then begin
    v := !v lsr 31;
    bit := !bit + 31
  end;
  if !v land 0xFFFF = 0 then begin
    v := !v lsr 16;
    bit := !bit + 16
  end;
  if !v land 0xFF = 0 then begin
    v := !v lsr 8;
    bit := !bit + 8
  end;
  if !v land 0xF = 0 then begin
    v := !v lsr 4;
    bit := !bit + 4
  end;
  if !v land 0x3 = 0 then begin
    v := !v lsr 2;
    bit := !bit + 2
  end;
  if !v land 0x1 = 0 then bit := !bit + 1;
  !bit

let intersects_array t arr =
  let words = t.words in
  let len = Array.length arr in
  let rec go i =
    if i >= len then false
    else begin
      let x = Array.unsafe_get arr i in
      check t x;
      if
        Array.unsafe_get words (x / bits_per_word)
        land (1 lsl (x mod bits_per_word))
        <> 0
      then true
      else go (i + 1)
    end
  in
  go 0

let of_array n xs =
  let t = create n in
  Array.iter (fun i -> add t i) xs;
  t

let blit ~src ~dst =
  if src.n <> dst.n then invalid_arg "Bitset.blit: capacity mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let next_set_from t start =
  if start < 0 then invalid_arg "Bitset.next_set_from: negative index";
  if start >= t.n then None
  else begin
    (* Word-walk: mask off bits below [start] in its word, then skip
       empty words; the lowest set bit of the first non-empty word is
       the answer. *)
    let nw = Array.length t.words in
    let rec go w mask =
      if w >= nw then None
      else begin
        let v = t.words.(w) land mask in
        if v = 0 then go (w + 1) (lnot 0)
        else Some ((w * bits_per_word) + ntz_lsb (v land -v))
      end
    in
    let w0 = start / bits_per_word in
    go w0 (lnot ((1 lsl (start mod bits_per_word)) - 1))
  end
