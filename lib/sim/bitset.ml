type t = { n : int; words : int array }

let bits_per_word = 63
let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (words_for n) 0 }

let capacity t = t.n

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

let set t i b = if b then add t i else remove t i

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words
let clear t = Array.fill t.words 0 (Array.length t.words) 0

let fill t =
  let full_words = t.n / bits_per_word in
  Array.fill t.words 0 full_words (lnot 0 land ((1 lsl bits_per_word) - 1));
  let rem = t.n mod bits_per_word in
  if rem > 0 then t.words.(full_words) <- (1 lsl rem) - 1

let copy t = { n = t.n; words = Array.copy t.words }

let equal a b =
  a.n = b.n && Array.for_all2 (fun x y -> x = y) a.words b.words

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

(* Dense words flip the cost balance: the lsb-isolation walk pays a
   branchy ntz per set bit, so on a nearly-full word it does ~63 of
   them and loses to a straight bit loop whose test is one [land].
   Each word picks its strategy from its own popcount (O(set bits),
   negligible on sparse words where the walk wins anyway). *)
let dense_word_bits = 40

let iter_set t ~f =
  let words = t.words in
  for w = 0 to Array.length words - 1 do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      let base = w * bits_per_word in
      if popcount !word >= dense_word_bits then
        for b = 0 to bits_per_word - 1 do
          if !word land (1 lsl b) <> 0 then f (base + b)
        done
      else
        while !word <> 0 do
          let lsb = !word land - !word in
          f (base + ntz_lsb lsb);
          word := !word land (!word - 1)
        done
    end
  done

let exists_set t ~f =
  let words = t.words in
  let nw = Array.length words in
  let rec scan_word w word base =
    if word = 0 then scan w (* next word *)
    else begin
      let lsb = word land -word in
      if f (base + ntz_lsb lsb) then true
      else scan_word w (word land (word - 1)) base
    end
  and scan w =
    if w >= nw then false
    else scan_word (w + 1) (Array.unsafe_get words w) (w * bits_per_word)
  in
  scan 0

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

let fold t ~init ~f =
  let acc = ref init in
  iter_set t ~f:(fun i -> acc := f !acc i);
  !acc

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc i -> i :: acc))

let of_list n xs =
  let t = create n in
  List.iter (fun i -> add t i) xs;
  t

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

let rank t i =
  let i = Stdlib.min (Stdlib.max i 0) t.n in
  if i = 0 then 0
  else begin
    let w = i / bits_per_word and b = i mod bits_per_word in
    let acc = ref 0 in
    for k = 0 to w - 1 do
      acc := !acc + popcount t.words.(k)
    done;
    if b > 0 then acc := !acc + popcount (t.words.(w) land ((1 lsl b) - 1));
    !acc
  end

let nth_set t k =
  if k < 0 then invalid_arg "Bitset.nth_set: negative rank";
  let nw = Array.length t.words in
  let rec over_words w k =
    if w >= nw then None
    else begin
      let word = t.words.(w) in
      let pc = popcount word in
      if k >= pc then over_words (w + 1) (k - pc)
      else begin
        (* Drop the k lowest set bits, then take the next one. *)
        let v = ref word in
        for _ = 1 to k do
          v := !v land (!v - 1)
        done;
        Some ((w * bits_per_word) + ntz_lsb (!v land - !v))
      end
    end
  in
  over_words 0 k

let first_clear_from t start =
  if start < 0 then invalid_arg "Bitset.first_clear_from: negative index";
  if start >= t.n then None
  else begin
    (* Word-wise: complement the word, mask off positions below [start]
       (first word only), then the lowest set bit of the complement is
       the first clear index. *)
    let nw = Array.length t.words in
    let full_mask = (1 lsl bits_per_word) - 1 in
    let rec go w mask =
      if w >= nw then None
      else begin
        let inv = lnot t.words.(w) land mask in
        if inv = 0 then go (w + 1) full_mask
        else begin
          let i = (w * bits_per_word) + ntz_lsb (inv land -inv) in
          if i < t.n then Some i else None
        end
      end
    in
    let w0 = start / bits_per_word in
    go w0 (full_mask land lnot ((1 lsl (start mod bits_per_word)) - 1))
  end

let count_range t ~lo ~hi =
  let lo = Stdlib.max lo 0 and hi = Stdlib.min hi t.n in
  if lo >= hi then 0
  else begin
    (* Popcount whole words, trimming the partial words at both ends. *)
    let wlo = lo / bits_per_word and whi = (hi - 1) / bits_per_word in
    let full_mask = (1 lsl bits_per_word) - 1 in
    let mask_from b = lnot ((1 lsl b) - 1) in
    (* [b] ranges over 1..63; shifting an OCaml int by 63 is unspecified. *)
    let mask_upto b = if b >= bits_per_word then full_mask else (1 lsl b) - 1 in
    if wlo = whi then
      popcount
        (t.words.(wlo)
        land mask_from (lo mod bits_per_word)
        land mask_upto (((hi - 1) mod bits_per_word) + 1))
    else begin
      let acc = ref (popcount (t.words.(wlo) land mask_from (lo mod bits_per_word))) in
      for w = wlo + 1 to whi - 1 do
        acc := !acc + popcount t.words.(w)
      done;
      acc
      := !acc
         + popcount (t.words.(whi) land mask_upto (((hi - 1) mod bits_per_word) + 1));
      !acc
    end
  end

let check_same a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let inter_cardinal a b =
  check_same a b;
  let acc = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    acc := !acc + popcount (a.words.(w) land b.words.(w))
  done;
  !acc

let disjoint a b =
  check_same a b;
  let ok = ref true in
  for w = 0 to Array.length a.words - 1 do
    if a.words.(w) land b.words.(w) <> 0 then ok := false
  done;
  !ok

let union_into ~dst src =
  check_same dst src;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done
