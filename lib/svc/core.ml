(* The daemon's replayable state machine.

   One rule produces every recovery guarantee downstream: the simulation
   state is a pure function of (params, the sequence of applied WAL
   entries).  [admit] does all fallible validation against current state
   *before* anything is logged; [apply] is then infallible for admitted
   ops and is driven identically by the live request path and by WAL
   replay.  Time is folded in by stamping each op with
   [max (requested, now)] at admission and replaying [run_until stamp;
   op; run_until stamp] — the second slice drains same-instant
   scheduling passes, so the state is always snapshot-able between
   entries.

   The balance table tracks live fail/repair pairing per fault target:
   [Fattree.State] raises if a repair lands on a healthy resource, and
   unlike the offline simulator (whose fault script is validated as a
   whole) the daemon sees faults one at a time, so the pairing check
   must happen at admission. *)

type params = Sched.Simulator.params = {
  scheme : string;
  radix : int;
  scenario : string;
  scenario_seed : int;
  backfill_window : int;
  backfill : bool;
  resilience : Sched.Simulator.resilience;
  trace_name : string;
  system_nodes : int;
}

(* The WAL segment header's row: same fields as the checkpoint header's,
   in another order and with the trace name under its own key. *)
let params_row =
  let open Obs.Row in
  let+ scheme = field "scheme" str (fun p -> p.scheme)
  and+ radix = field "radix" int (fun p -> p.radix)
  and+ scenario = field "scenario" str (fun p -> p.scenario)
  and+ scenario_seed = field "scenario_seed" int (fun p -> p.scenario_seed)
  and+ backfill_window =
    field "backfill_window" int (fun p -> p.backfill_window)
  and+ backfill = field "backfill" bool (fun p -> p.backfill)
  and+ resilience = on (fun p -> p.resilience) Sched.Checkpoint.resilience
  and+ trace_name = field "trace_name" str (fun p -> p.trace_name)
  and+ system_nodes = field "system_nodes" int (fun p -> p.system_nodes) in
  { scheme; radix; scenario; scenario_seed; backfill_window; backfill;
    resilience; trace_name; system_nodes }

let params_to_fields p = Obs.Row.fields params_row p

let params_of_fields fields =
  try Ok (Obs.Row.decode params_row fields)
  with Obs.Json.Parse_error m -> Error ("bad config fields: " ^ m)

type t = {
  sim : Sched.Simulator.t;
  topo : Fattree.Topology.t;  (* for fault-target range validation *)
  balance : (string, int) Hashtbl.t;  (* "<target>:<id>" -> live fails *)
  dedup : (string, int) Hashtbl.t;  (* rid -> seq of first application *)
  mutable next_job_id : int;
  mutable last_seq : int;
  mutable drained : string option; (* the fingerprint, once drained *)
  ckpt_memo : Sched.Checkpoint.memo;  (* rows the last checkpoint wrote *)
}

let params t = Sched.Simulator.params t.sim
let now t = Sched.Simulator.now t.sim
let last_seq t = t.last_seq
let fingerprint t = t.drained
let find_rid t rid = Hashtbl.find_opt t.dedup rid
let note_rid t rid seq = Hashtbl.replace t.dedup rid seq

let balance_key target =
  Printf.sprintf "%s:%d"
    (Trace.Faults.target_name target)
    (Trace.Faults.target_id target)

let balance_of t target =
  Option.value ~default:0 (Hashtbl.find_opt t.balance (balance_key target))

let bump_balance t target d =
  Hashtbl.replace t.balance (balance_key target) (balance_of t target + d)

let of_sim ~last_seq sim =
  let t =
    {
      sim;
      topo = Fattree.Topology.of_radix (Sched.Simulator.params sim).radix;
      balance = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      next_job_id = Sched.Simulator.max_job_id sim + 1;
      last_seq;
      drained = None;
      ckpt_memo = Sched.Checkpoint.memo ();
    }
  in
  (* Every event in the log has executed (daemon ops always run_until
     their own stamp), so the live fail count per target is a plain
     fold. *)
  Array.iter
    (fun (e : Trace.Faults.event) ->
      bump_balance t e.target
        (match e.kind with Trace.Faults.Fail -> 1 | Trace.Faults.Repair -> -1))
    (Sched.Simulator.fault_log sim);
  t

let create ?sink ?prof p =
  Result.map
    (fun (config, workload) ->
      of_sim ~last_seq:(-1) (Sched.Simulator.start config workload))
    (Sched.Simulator.resolve ?sink ?prof p)

let of_checkpoint ?sink ?prof ~path () =
  match Sched.Checkpoint.load_ext ~path with
  | Error m -> Error m
  | Ok (snap, header) -> (
      match
        try Ok (Obs.Json.int header "x_svc_seq")
        with Obs.Json.Parse_error _ ->
          Error (path ^ ": checkpoint carries no x_svc_seq (not a daemon \
                         checkpoint)")
      with
      | Error m -> Error m
      | Ok last_seq -> (
          match Sched.Simulator.of_snapshot ?sink ?prof snap with
          | Error m -> Error m
          | Ok sim -> Ok (of_sim ~last_seq sim)))

let snapshot t = Sched.Simulator.snapshot t.sim
let checkpoint_meta t = [ ("x_svc_seq", Obs.Json.Num (float t.last_seq)) ]

let checkpoint_rows t = Sched.Checkpoint.rows t.ckpt_memo

let checkpoint t ~path =
  match t.drained with
  | Some _ -> false  (* the WAL'd drain op re-derives everything *)
  | None ->
      Sched.Checkpoint.save ~memo:t.ckpt_memo
        ~meta:(checkpoint_meta t)
        ~path (snapshot t);
      Crash.hit "ckpt-post-save";
      true

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Submit of Trace.Job.t  (* arrival = the op's stamp *)
  | Cancel of int
  | Resize of int * int  (* job id, requested granted size *)
  | Fault of Trace.Faults.event  (* time = the op's stamp *)
  | Drain

(* Validation happens here, against the state all earlier ops produced —
   and the properties checked (id uniqueness, target ranges, fail/repair
   balance) only change through ops, so a verdict issued now still holds
   when [apply] runs right after the WAL append. *)
let admit t ~stamp (req : Protocol.request) =
  match t.drained with
  | Some _ -> Error "simulation already drained"
  | None -> (
      match req with
      | Protocol.Submit
          { id; size; min_size; max_size; runtime; est_runtime; bw_class }
        -> (
          let id =
            match id with
            | Some i -> i
            | None -> t.next_job_id
          in
          let spec =
            match (min_size, max_size) with
            | None, None -> None  (* classical rigid submission *)
            | _ ->
                Some
                  (Trace.Job.Moldable
                     {
                       min_size = Option.value ~default:size min_size;
                       max_size = Option.value ~default:size max_size;
                       pref = size;
                     })
          in
          if id < 0 then Error "job id must be non-negative"
          else if Sched.Simulator.known_job t.sim id then
            Error (Printf.sprintf "duplicate job id %d" id)
          else
            match
              Trace.Job.v ~arrival:stamp ?bw_class ?est_runtime ?spec ~id
                ~size ~runtime ()
            with
            | j -> Ok (Submit j)
            | exception Invalid_argument m -> Error m)
      | Protocol.Cancel { id } -> Ok (Cancel id)
      | Protocol.Resize { id; size } ->
          (* Whether the engine will grant the resize depends on the
             state at apply time; the verdict is part of the reply, not
             of admission.  Both verdicts are deterministic, so WAL
             replay reproduces them. *)
          if size <= 0 then Error "size must be positive"
          else Ok (Resize (id, size))
      | Protocol.Fault { kind; target } -> (
          match Trace.Faults.resources t.topo target with
          | exception Invalid_argument m -> Error m
          | _ -> (
              match kind with
              | Trace.Faults.Fail ->
                  Ok (Fault { time = stamp; kind; target })
              | Trace.Faults.Repair ->
                  if balance_of t target <= 0 then
                    Error
                      (Printf.sprintf
                         "repair of healthy target %s %d (no live fail on \
                          record)"
                         (Trace.Faults.target_name target)
                         (Trace.Faults.target_id target))
                  else Ok (Fault { time = stamp; kind; target })))
      | Protocol.Drain -> Ok Drain
      | _ -> Error "not a journaled operation")

(* WAL entries: the op's name, its stamp and request id, then the op's
   own fields.  Each op's row reads back as a function of the stamp,
   which is a submitted job's arrival and a fault's time. *)
let stamped row =
  let open Obs.Row in
  let+ stamp = field "at" num (fun (stamp, _, _) -> stamp)
  and+ rid = field ~omit:None "rid" (option str) (fun (_, rid, _) -> rid)
  and+ op = on (fun (_, _, x) -> x) row in
  (stamp, rid, op stamp)

let submit =
  let open Obs.Row in
  let open Trace.Job in
  let+ id = field "id" int (fun j -> j.id)
  and+ size = field "size" int (fun j -> j.size)
  and+ spec = Sched.Checkpoint.spec
  and+ runtime = field "runtime" num (fun j -> j.runtime)
  and+ est_runtime = field "est" num (fun j -> j.est_runtime)
  and+ bw_class = field "bw" num (fun j -> j.bw_class) in
  fun arrival ->
    Submit
      (v ~arrival ~bw_class ~est_runtime ~spec:(spec size) ~id ~size ~runtime ())

let entry =
  let open Obs.Row in
  let fault kind =
    case
      (Trace.Faults.kind_name kind)
      (function
        | s, r, Fault f when f.kind = kind -> Some (s, r, f.target) | _ -> None)
      (stamped
         (let+ target = Protocol.target in
          fun time -> Fault { time; kind; target }))
  in
  cases "op"
    [
      case "submit"
        (function s, r, Submit j -> Some (s, r, j) | _ -> None)
        (stamped submit);
      case "cancel"
        (function s, r, Cancel id -> Some (s, r, id) | _ -> None)
        (stamped
           (let+ id = field "id" int Fun.id in
            fun _ -> Cancel id));
      case "resize"
        (function s, r, Resize (id, size) -> Some (s, r, (id, size)) | _ -> None)
        (stamped
           (let+ id = field "id" int fst and+ size = field "size" int snd in
            fun _ -> Resize (id, size)));
      fault Trace.Faults.Fail;
      fault Trace.Faults.Repair;
      case "drain"
        (function s, r, Drain -> Some (s, r, ()) | _ -> None)
        (stamped
           (let+ _ = list [] in
            fun _ -> Drain));
    ]

let fields_of_op ~stamp ~rid op = Obs.Row.fields entry (stamp, rid, op)

let op_of_fields fields =
  match Obs.Row.decode entry fields with
  | entry -> Ok entry
  | exception Obs.Json.Parse_error m -> Error ("bad WAL entry: " ^ m)
  | exception Invalid_argument m -> Error ("bad submit entry: " ^ m)

(* Infallible for ops [admit] issued against this exact state; an
   engine-level rejection here means the WAL and the state diverged,
   which recovery must treat as corruption, not business as usual. *)
let svc_invariant m = failwith ("svc state/WAL divergence: " ^ m)

let apply t ~seq ~rid ~stamp op =
  let sim = t.sim in
  Sched.Simulator.run_until sim stamp;
  let reply =
    match op with
    | Submit j ->
        (match Sched.Simulator.submit sim j with
        | Ok () -> ()
        | Error m -> svc_invariant m);
        if j.id >= t.next_job_id then t.next_job_id <- j.id + 1;
        [ ("id", Obs.Json.Num (float j.id)) ]
    | Cancel id ->
        let outcome =
          match Sched.Simulator.cancel sim id with
          | Sched.Simulator.Cancelled -> "cancelled"
          | Sched.Simulator.Not_pending -> "not-pending"
          | Sched.Simulator.Unknown_job -> "unknown-job"
        in
        [ ("outcome", Obs.Json.Str outcome) ]
    | Resize (id, size) -> (
        match Sched.Simulator.resize sim id ~size with
        | Sched.Simulator.Resized_to n ->
            [
              ("outcome", Obs.Json.Str "resized");
              ("size", Obs.Json.Num (float n));
            ]
        | Sched.Simulator.Resize_refused m ->
            [
              ("outcome", Obs.Json.Str "refused");
              ("reason", Obs.Json.Str m);
            ])
    | Fault e ->
        (match Sched.Simulator.inject_fault sim e with
        | Ok () -> ()
        | Error m -> svc_invariant m);
        bump_balance t e.target
          (match e.kind with
          | Trace.Faults.Fail -> 1
          | Trace.Faults.Repair -> -1);
        []
    | Drain ->
        let m, _ = Sched.Simulator.finish sim in
        let fp = Sched.Metrics.fingerprint m in
        t.drained <- Some fp;
        [ ("fingerprint", Obs.Json.Str fp) ]
  in
  (* Second slice: execute what the op scheduled at its own stamp and
     drain the same-instant scheduling pass. *)
  (match op with Drain -> () | _ -> Sched.Simulator.run_until sim stamp);
  Crash.hit "post-apply";
  t.last_seq <- seq;
  (match rid with Some r -> Hashtbl.replace t.dedup r seq | None -> ());
  reply

let apply_entry t (e : Wal.entry) =
  match op_of_fields e.fields with
  | Error m -> Error (Printf.sprintf "WAL entry %d: %s" e.seq m)
  | Ok (stamp, rid, op) -> Ok (apply t ~seq:e.seq ~rid ~stamp op)

let status t =
  let sim = t.sim in
  Obs.Json.
    [
      ("clock", Num (Sched.Simulator.now sim));
      ("seq", Num (float t.last_seq));
      ("pending", Num (float (Sched.Simulator.pending_count sim)));
      ("running", Num (float (Sched.Simulator.running_count sim)));
      ("finished", Num (float (Sched.Simulator.finished_count sim)));
      ("cancelled", Num (float (Sched.Simulator.cancelled_count sim)));
      ("rejected", Num (float (Sched.Simulator.rejected_count sim)));
      ("drained", Num (if t.drained = None then 0.0 else 1.0));
    ]

let advance t upto =
  let upto = Float.max upto (Sched.Simulator.now t.sim) in
  Sched.Simulator.run_until t.sim upto
