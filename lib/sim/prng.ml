type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

let copy t = { state = t.state }

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec go () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.sub (Int64.sub r v) (Int64.of_int (bound - 1)) < 0L then go ()
    else Int64.to_int v
  in
  go ()

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t ~bound:(hi - lo + 1)

let float t ~bound =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  (* 53 random bits scaled to [0,1). *)
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let float_in t ~lo ~hi = lo +. float t ~bound:(hi -. lo)
let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = 1.0 -. float t ~bound:1.0 in
  -.mean *. log u

let normal t ~mu ~sigma =
  let u1 = 1.0 -. float t ~bound:1.0 in
  let u2 = float t ~bound:1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choose: empty array";
  arr.(int t ~bound:(Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  arr
