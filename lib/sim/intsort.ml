(* Monomorphic in-place sort for int arrays.

   [Array.sort] calls its comparator through a closure, which on id
   arrays of a few hundred entries costs more than the work around it.
   A hand-specialized quicksort compiles the comparisons to direct
   register operations.  Its callers sort the id arrays built from
   lists or hash tables: TA's allocations, the simulator's job-id sets
   and a routed partition's node order.  (Partition-built allocations
   need no sort: [Partition.to_alloc] fills them in ascending order.)
   Output order is the same ascending order as [Array.sort Int.compare]
   (duplicates are indistinguishable), so swapping the two is
   behavior-preserving. *)

let insertion (a : int array) lo hi =
  for i = lo + 1 to hi do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* Median-of-three pivot; recurse on the smaller side to bound the
   stack depth at O(log n). *)
let rec quick (a : int array) lo hi =
  if hi - lo < 16 then insertion a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi) < a.(lo) then swap a hi lo;
    if a.(hi) < a.(mid) then swap a hi mid;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      quick a lo !j;
      quick a !i hi
    end
    else begin
      quick a !i hi;
      quick a lo !j
    end
  end

let sort (a : int array) =
  let n = Array.length a in
  if n > 1 then quick a 0 (n - 1)

let of_list l =
  let a = Array.of_list l in
  sort a;
  a
