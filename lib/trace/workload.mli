(** Job-queue traces (Table 1 of the paper). *)

type t = {
  name : string;
  system_nodes : int;
      (** Size of the system the trace came from (for reporting; the
          simulation cluster may differ, as in the paper). *)
  jobs : Job.t array;  (** Sorted by arrival time, then id. *)
  has_arrivals : bool;
      (** False when every job arrives at time zero (heavy-load mode). *)
}

val create : name:string -> system_nodes:int -> Job.t array -> t
(** Sorts the jobs by (arrival, id) and derives [has_arrivals]. *)

val num_jobs : t -> int
val max_job_size : t -> int
val max_runtime : t -> float

val total_node_seconds : t -> float
(** Sum over jobs of [size * runtime] — the trace's total demand. *)

val zero_arrivals : t -> t
(** The same trace with every arrival forced to time zero (what the paper
    does to the Thunder and Atlas traces for heavy-load experiments). *)

val scale_arrivals : t -> float -> t
(** Multiplies all arrival times (the paper scales Aug-Cab and Nov-Cab
    arrivals by 0.5 to raise offered load). *)

val truncate : t -> int -> t
(** The first [n] jobs (by arrival order); used for scaled-down runs. *)

val inflate_estimates : t -> float -> t
(** [inflate_estimates w f] sets every job's runtime estimate to
    [f * runtime] ([f >= 1]).  Models the loose wall-time requests real
    users submit; used by the estimate-accuracy ablation. *)

val moldable : ?min_frac:float -> ?max_frac:float -> t -> t
(** [moldable w] makes every job moldable around its rigid request:
    [min_size = ceil (min_frac * size)] (default 0.5), [max_size =
    floor (max_frac * size)] (default 2.0, clamped to at least [size]),
    [pref = size].  The name gains a ["+m"] suffix so sweep cell ids
    (and checkpoint/WAL trace names) never collide with the rigid
    trace's. *)

(** One row of the paper's Table 1. *)
type summary = {
  s_name : string;
  s_system_nodes : int;
  s_num_jobs : int;
  s_max_job : int;
  s_min_runtime : float;
  s_max_runtime : float;
  s_has_arrivals : bool;
}

val summarize : t -> summary
val pp_summary : Format.formatter -> summary -> unit
val pp_summary_header : Format.formatter -> unit -> unit
