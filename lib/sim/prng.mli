(** Deterministic pseudo-random number generation.

    A SplitMix64 generator with convenience samplers for the distributions
    used by the workload generators.  Every experiment in this repository is
    seeded, so results are bit-for-bit reproducible across runs. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator.  Two generators created with the
    same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful for giving each trace or scenario its own stream. *)

val copy : t -> t
(** [copy t] is a generator with the same state as [t]; the two then evolve
    independently. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform on [0, bound).  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform on the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> bound:float -> float
(** [float t ~bound] is uniform on [0, bound). *)

val float_in : t -> lo:float -> hi:float -> float
(** [float_in t ~lo ~hi] is uniform on [lo, hi). *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] samples Exp(1/mean) by inversion. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] is [exp (mu + sigma * z)] with [z] standard
    normal (Box–Muller). *)

val normal : t -> mu:float -> sigma:float -> float
(** [normal t ~mu ~sigma] is a Gaussian sample (Box–Muller). *)

val choose : t -> 'a array -> 'a
(** [choose t arr] is a uniformly random element of [arr], which must be
    non-empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)
