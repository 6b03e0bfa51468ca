(** A minimal discrete-event simulation engine.

    Events are plain values of the caller's type, scheduled at absolute
    simulated times and handed to the caller's handler in
    non-decreasing time order.  Ties are broken first by the priority
    function given at {!create} (lower runs first — e.g. job
    completions before job arrivals at the same instant, so freed
    resources are visible), then by insertion order (FIFO).  Because an
    event is data, not a closure, a checkpoint can record the pending
    queue as it is (see {!pending_events} and {!schedule_restored}). *)

type 'a t
(** A simulation engine over events of type ['a], with its own clock
    and pending-event queue. *)

val create : priority:('a -> int) -> 'a t
(** [create ~priority] is an engine with clock at time 0 and no pending
    events; [priority ev] is [ev]'s same-instant rank. *)

val now : 'a t -> float
(** [now t] is the current simulated time. *)

val schedule : 'a t -> time:float -> 'a -> unit
(** [schedule t ~time ev] enqueues [ev] for simulated [time].
    Scheduling in the past (before [now t]) raises [Invalid_argument]. *)

val pending : 'a t -> int
(** [pending t] is the number of events still queued. *)

val pending_events : 'a t -> (float * int * 'a) list
(** [pending_events t] is every queued event as [(time, seq, ev)],
    sorted by insertion order ([seq]).  The queue is unchanged.  Used by
    checkpointing to serialize the heap logically. *)

val steps : 'a t -> int
(** [steps t] is the number of events executed so far. *)

val next_seq : 'a t -> int
(** [next_seq t] is the sequence number the next {!schedule} will use.
    Part of the checkpoint: restoring it exactly preserves FIFO
    tie-breaking across a checkpoint/restore boundary. *)

val restore :
  priority:('a -> int) -> clock:float -> steps:int -> next_seq:int -> 'a t
(** [restore ~priority ~clock ~steps ~next_seq] is an engine with an
    empty queue whose clock and counters are set exactly, ready to
    receive the checkpointed events via {!schedule_restored}.  Raises
    [Invalid_argument] on negative values. *)

val schedule_restored : 'a t -> time:float -> seq:int -> 'a -> unit
(** [schedule_restored t ~time ~seq ev] re-inserts a checkpointed event
    with its {e original} sequence number, so same-instant tie-breaking
    after restore is identical to the uninterrupted run.  Raises
    [Invalid_argument] if [time] is in the past or [seq >= next_seq t]. *)

val step : 'a t -> ('a -> unit) -> bool
(** [step t handle] pops the next event, advances the clock to its time
    and runs [handle] on it.  Returns [false] if no event was pending. *)

val run : 'a t -> ('a -> unit) -> unit
(** [run t handle] executes events until the queue is empty.  The
    handler may schedule further events. *)

val run_until : 'a t -> ('a -> unit) -> float -> unit
(** [run_until t handle horizon] executes events with time <= [horizon],
    then advances the clock to [horizon] (if it is not already past
    it).  Remaining events stay queued. *)
