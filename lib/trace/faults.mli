(** Failure/repair traces: the resource-dynamics axis of the simulation.

    A fault trace is a time-ordered script of fail/repair events over
    fat-tree components.  The simulator replays it alongside the job
    trace; the allocators never see it directly — failed resources are
    withdrawn from [Fattree.State]'s availability summaries, so every
    placement policy avoids them through its normal probe paths.

    Traces come from three sources: {!scripted} (tests, what-if
    scenarios), {!load} (files), and {!generate} (per-component
    exponential MTBF/MTTR streams off [Sim.Prng], deterministic in the
    seed). *)

type target =
  | Node of int  (** One compute node. *)
  | Leaf_cable of int  (** One leaf–L2 cable. *)
  | L2_cable of int  (** One L2–spine cable. *)
  | Leaf_switch of int
      (** A whole leaf switch: its [m1] nodes (which have no other path
          into the network) and its [m1] uplink cables. *)
  | L2_switch of int
      (** A whole L2 switch: its [m2] leaf-side and [m2] spine-side
          cables.  Nodes keep their other uplinks. *)
  | Spine of int  (** A whole spine: its [m3] downlink cables. *)

type kind = Fail | Repair

val kind_name : kind -> string
(** ["fail"] or ["repair"], as fault files, checkpoints and the daemon
    protocol spell it. *)

type event = { time : float; kind : kind; target : target }

type t
(** An immutable fault trace, events sorted by time (stable for
    same-instant events). *)

val none : t
(** The empty trace: a permanently healthy machine. *)

val scripted : event list -> t
(** Sorts by time (stable).  Raises [Invalid_argument] on a negative
    event time. *)

val of_ordered : event list -> t
(** Like {!scripted} but keeps the caller's order verbatim, for callers
    whose event {e positions} are load-bearing — the simulator schedules
    fault events tagged by array index, and checkpoint restore must
    reproduce those indices even when events were injected dynamically
    (appended after, but timed before, earlier entries).  Raises
    [Invalid_argument] on a negative event time. *)

val events : t -> event array
val num_events : t -> int
val is_empty : t -> bool

val resources :
  Fattree.Topology.t -> target -> int array * int array * int array
(** [(nodes, leaf_cables, l2_cables)] affected by a target, per the
    blast radii documented on {!target}.  Raises [Invalid_argument] on
    an out-of-range id. *)

val apply : Fattree.State.t -> target -> unit
(** Fail every resource of the target (ref-counted, so overlapping
    faults compose; see [Fattree.State]). *)

val revert : Fattree.State.t -> target -> unit
(** Repair every resource of the target. *)

val generate :
  ?nodes:bool ->
  ?cables:bool ->
  ?switches:bool ->
  seed:int ->
  mtbf:float ->
  mttr:float ->
  horizon:float ->
  Fattree.Topology.t ->
  t
(** Exponential fail/repair streams, one independent deterministic
    stream per component (same seed, same history, whatever scheduler
    replays it).  [mtbf]/[mttr] are per-component means in simulated
    time units; new failures start only before [horizon] (their repairs
    may land after).  The optional flags select component classes
    (default: all — nodes, both cable tiers, all three switch tiers).
    Expected unavailable fraction per component is
    [mttr /. (mtbf +. mttr)]. *)

val load : string -> (t, string) result
(** Parse a scripted trace file: one [<time> fail|repair
    node|leaf-cable|l2-cable|leaf|l2|spine <id>] per line; [#] starts a
    comment.  Ids are validated against the topology only when the
    trace is applied. *)

val target_name : target -> string
val target_id : target -> int

val target_of_name : string -> int -> (target, string) result
(** Inverse of [(target_name, target_id)]: the names {!load} accepts.
    Checkpoint files use this to round-trip fault traces. *)

