(* The simulator's scalar accumulators, declared once: the live
   simulation mutates one of these records, a snapshot carries a copy,
   and the checkpoint's "acc" row declares each field once as an
   [Obs.Row] field, which both writes it and reads it back into a fresh
   record.  There is no .mli on purpose — the record below is the whole
   interface, and an interface file would repeat it. *)

type t = {
  mutable sched_clock : float; (* wall time spent deciding *)
  mutable alloc_busy : int; (* nodes held by running jobs *)
  mutable req_busy : int; (* nodes those jobs requested *)
  mutable last_start_time : float;
  mutable first_start_time : float; (* -1 until the first start *)
  mutable first_blocked_time : float; (* -1 until a head job blocks *)
  mutable rejected : int;
  mutable pending_repairs : int; (* repair events not yet applied *)
  mutable fault_events : int;
  mutable interrupted : int;
  mutable requeued : int;
  mutable abandoned : int;
  mutable lost_node_time : float;
  mutable shrunk : int; (* fault recoveries by in-place shrink *)
  mutable grown : int; (* idle-capacity grows of moldable jobs *)
  mutable started_total : int; (* jobs started, for Pass_end deltas *)
  mutable cancelled : int; (* pending jobs withdrawn before starting *)
}

let create ~pending_repairs =
  {
    sched_clock = 0.0;
    alloc_busy = 0;
    req_busy = 0;
    last_start_time = 0.0;
    first_start_time = -1.0;
    first_blocked_time = -1.0;
    rejected = 0;
    pending_repairs;
    fault_events = 0;
    interrupted = 0;
    requeued = 0;
    abandoned = 0;
    lost_node_time = 0.0;
    shrunk = 0;
    grown = 0;
    started_total = 0;
    cancelled = 0;
  }

let copy a = { a with sched_clock = a.sched_clock }
