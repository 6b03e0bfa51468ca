open Fattree

(* What happens to a job whose partition loses a resource to a fault:
   the attempt is killed (its work is lost) and the job is either
   resubmitted after [resubmit_delay] — at most [max_retries] times —
   or abandoned.  With [shrink] set, a moldable job that only lost
   nodes (no cables) and can still meet its minimum size is resized in
   place instead — no work is lost and no kill is counted. *)
type resilience = {
  requeue : bool;
  resubmit_delay : float;
  max_retries : int;
  charge_lost_work : bool;
      (* true: every killed attempt's node-seconds count as lost work;
         false: only abandoning kills are charged. *)
  shrink : bool;
}

let no_resilience =
  {
    requeue = false;
    resubmit_delay = 0.0;
    max_retries = 0;
    charge_lost_work = true;
    shrink = false;
  }

type config = {
  allocator : Allocator.t;
  radix : int;
  scenario : Trace.Scenario.t;
  scenario_seed : int;
  backfill_window : int;
  backfill : bool;
  faults : Trace.Faults.t;
  resilience : resilience;
  sink : Obs.Sink.t;
  prof : Obs.Prof.t option;
  net : (Routing.Telemetry.policy * Routing.Telemetry.shape) option;
}

module Config = struct
  type t = config

  let make ?(scenario = Trace.Scenario.No_speedup) ?(scenario_seed = 1)
      ?(backfill_window = 50) ?(backfill = true) ?(faults = Trace.Faults.none)
      ?(resilience = no_resilience) ?(sink = Obs.Sink.null) ?prof ?net ~radix
      allocator =
    {
      allocator;
      radix;
      scenario;
      scenario_seed;
      backfill_window;
      backfill;
      faults;
      resilience;
      sink;
      prof;
      net;
    }

  let with_scenario scenario cfg = { cfg with scenario }
  let with_backfill_window backfill_window cfg = { cfg with backfill_window }
  let with_backfill backfill cfg = { cfg with backfill }
  let with_sink sink cfg = { cfg with sink }
  let with_prof prof cfg = { cfg with prof }
end

(* A run's identity by name, as checkpoints and the daemon's WAL record
   it; [resolve] and [params] convert. *)
type params = {
  scheme : string;
  radix : int;
  scenario : string;
  scenario_seed : int;
  backfill_window : int;
  backfill : bool;
  resilience : resilience;
  trace_name : string;
  system_nodes : int;
}

type running = {
  r_job : Trace.Job.t;
  r_alloc : Alloc.t; (* [r_alloc.size] is the granted size *)
  r_start : float;
  r_end : float; (* actual completion *)
  r_est_end : float; (* what the scheduler believes: start + user estimate *)
  r_attempt : int; (* 0 for the first run, +1 per requeue *)
  r_epoch : int; (* +1 per in-place resize of this attempt *)
}

(* What the engine queues.  A completion names the attempt and resize
   epoch it was scheduled under, so a killed or resized attempt's stale
   completion is dropped; a fault indexes the run's fault log. *)
type event =
  | Arrive of int
  | Complete of { job : int; attempt : int; epoch : int }
  | Fault of int
  | Pass

(* Same-instant order: completions and faults free or withdraw resources
   before arrivals queue, and the scheduling pass sees all of them. *)
let event_priority = function
  | Complete _ | Fault _ -> 0
  | Arrive _ -> 1
  | Pass -> 2

(* The reservation search's probe arenas over one live state, each
   created on first use so runs that never reserve never pay for it:
   - [scratch], refreshed from the live state once per search and then
     moved between drained prefixes by releases and unreleases;
   - [drained], the fully drained machine, tagged with the live state's
     fail + repair count it was built at.  Draining every running
     allocation leaves only the fault overlay, so the arena (and its
     warm caches) stays valid until a fault lands or is repaired. *)
type arenas = {
  live : State.t;
  mutable scratch : State.t option;
  mutable drained : (State.t * int) option;
}

let arenas live = { live; scratch = None; drained = None }

type sim = {
  cfg : config;
  workload : Trace.Workload.t;
  st : State.t;
  engine : event Sim.Engine.t;
  (* FIFO pending queue with lazy deletion: ids in arrival order plus a
     live-job table.  Each queue entry is stamped with a per-job
     enqueue generation; the entry is live only while [pending_gen]
     still maps the id to that stamp.  Requeues (fault resilience) make
     this necessary: a job started by backfill leaves a stale id in the
     queue, and when the job re-arrives the stale entry must not come
     back to life at its old position — only the back-of-queue entry
     with the fresh stamp is live. *)
  pending_ids : (int * int) Queue.t;
  pending : (int, Trace.Job.t) Hashtbl.t;
  pending_gen : (int, int) Hashtbl.t; (* id -> live enqueue generation *)
  running : (int, running) Hashtbl.t;
  (* No-fit memo: job classes (size, bw demand) whose probe against the
     live state returned a definitive [No_fit].  Claims only remove
     resources, so an entry stays valid until the next release; the memo
     is invalidated wholesale when [State.release_generation] moves.
     [Gave_up] verdicts (budget cut-offs) are never recorded. *)
  nofit : (int * float, unit) Hashtbl.t;
  mutable nofit_release_gen : int;
  mutable pass_scheduled : bool;
  acc : Accumulators.t;
  (* step function samples: (time, allocated_busy, requested_busy,
     pending_count, failed_nodes) recorded at every change *)
  mutable samples : (float * int * int * int * int) list;
  mutable finished : Metrics.per_job list;
  mutable finished_count : int;
  kills : (int, int) Hashtbl.t; (* job id -> attempts killed so far *)
  mutable reserved : (int * float) option; (* live head reservation *)
  (* Head-reservation memo: the head record, [State.generation st] and
     answer of the last real search.  The answer is a pure function of
     the machine, the running set and the head; every running-set change
     claims or releases, and every machine change bumps [generation], so
     a pass with the same head ([==]) at the same generation may reuse
     it.  Not checkpointed: a restored sim searches once. *)
  mutable res_memo : (Trace.Job.t * int * (float * Alloc.t) option) option;
  arenas : arenas; (* reservation probe states over [st] *)
  (* Online front-end (daemon) state: every job the simulation knows,
     plus jobs accepted after [start] (newest first), which snapshots
     append to the static workload so a restore sees one merged
     history. *)
  jobs_by_id : (int, Trace.Job.t) Hashtbl.t;
  mutable dyn_jobs : Trace.Job.t list;
  (* The static fault trace followed by the injected events, in
     injection order: [Fault i] runs [faults.(i)].  Injection replaces
     the array, never mutates it, so snapshots may share it. *)
  mutable faults : Trace.Faults.event array;
  (* Network telemetry (cfg.net): live congestion index over the running
     jobs' routed flows.  Pure observer — it never feeds back into
     scheduling or metrics, so telemetry-off runs are bit-identical. *)
  net : Routing.Telemetry.t option;
}

let record sim =
  sim.samples <-
    ( Sim.Engine.now sim.engine,
      sim.acc.alloc_busy,
      sim.acc.req_busy,
      Hashtbl.length sim.pending,
      Fattree.State.failed_node_count sim.st )
    :: sim.samples

(* The base runtime (and the scenario speedup draw) is always computed
   at the job's nominal size, then scaled work-conservingly by the
   granted size — so a moldable job's behaviour is a deterministic
   function of (job, granted), not of the molding history. *)
let job_runtime sim (j : Trace.Job.t) ~granted =
  let base =
    if sim.cfg.allocator.isolating then
      Trace.Scenario.isolated_runtime sim.cfg.scenario
        ~seed:sim.cfg.scenario_seed j
    else j.runtime
  in
  Trace.Job.scale_runtime j ~granted base

(* What the scheduler plans with: the user's wall-time request.  It never
   shrinks with the isolation scenario (users do not re-estimate), so all
   reservation and backfill decisions stay conservative — but it does
   stretch with a smaller grant, or the estimate would undershoot. *)
let job_estimate (j : Trace.Job.t) ~granted =
  Trace.Job.scale_runtime j ~granted j.est_runtime

let timed sim f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  sim.acc.sched_clock <- sim.acc.sched_clock +. (Unix.gettimeofday () -. t0);
  r

(* Emit one trace event.  The payload is a thunk so disabled tracing
   costs one flag test and no allocation; when profiling, the live
   gauges are sampled at every event regardless of the sink.  Events
   carry simulated time and logical payloads only — nothing wall-clock —
   so the stream is a pure function of (workload, scheme, seeds), and
   emission never touches simulator state, so traced and untraced runs
   produce bit-identical metrics. *)
let emit sim mk_payload =
  (match sim.cfg.prof with
  | Some p ->
      Obs.Prof.sample p "gauge/queue_depth"
        (float_of_int (Hashtbl.length sim.pending));
      Obs.Prof.sample p "gauge/free_nodes"
        (float_of_int (State.total_free_nodes sim.st));
      Obs.Prof.sample p "gauge/healthy_nodes"
        (float_of_int (State.healthy_node_count sim.st))
  | None -> ());
  if sim.cfg.sink.Obs.Sink.enabled then
    Obs.Sink.emit sim.cfg.sink
      { Obs.Event.time = Sim.Engine.now sim.engine; payload = mk_payload () }

let prof_incr sim name =
  match sim.cfg.prof with Some p -> Obs.Prof.incr p name | None -> ()

(* Run [f] under the profiling span [name] when profiling is on. *)
let prof_span sim name f =
  match sim.cfg.prof with Some p -> Obs.Prof.time p name f | None -> f ()

(* The live state's mutations, each under its own span: outside
   [sched_clock], so they are wall time the scheduler metric never
   sees, and the profile is where they show. *)
let claim_live sim alloc =
  prof_span sim "state/claim" (fun () ->
      State.claim_exn ~validate:false sim.st alloc)

let release_live sim alloc =
  prof_span sim "state/release" (fun () -> State.release sim.st alloc)

(* Telemetry hook: each job transition installs (or, with [~retract],
   removes) the allocation's flow set and emits a [Net_route] plus a
   cluster-wide [Net_congestion_sample].  The (re)route runs under a
   profiling span so the per-event maintenance cost shows up as a tail,
   not just a mean. *)
let net_route sim ~retract (alloc : Alloc.t) =
  match sim.net with
  | None -> ()
  | Some net ->
      let now = Sim.Engine.now sim.engine in
      let info =
        if retract then
          prof_span sim "net/retract" (fun () ->
              Routing.Telemetry.remove_job net ~now alloc.job)
        else
          prof_span sim "net/route" (fun () ->
              Routing.Telemetry.add_job net ~now alloc)
      in
      emit sim (fun () ->
          Obs.Event.Net_route
            {
              job = alloc.job;
              retract;
              flows = info.Routing.Telemetry.ri_flows;
              channels = info.ri_channels;
              interfered = info.ri_interfered;
            });
      emit sim (fun () ->
          let s = Routing.Telemetry.sample net in
          Obs.Event.Net_congestion_sample
            {
              max_load = s.Routing.Telemetry.s_max_load;
              shared = s.s_shared;
              interfered = s.s_interfered;
              total_flows = s.s_total_flows;
              lower_bound = s.s_lower_bound;
            })

(* A resource footprint turned into bitsets once; the returned test is
   whether an allocation holds any of its nodes or cables, an
   O(1)-per-element membership probe. *)
let footprint topo ~nodes ~leaf_cables ~l2_cables =
  let f_nodes = Sim.Bitset.of_array (Topology.num_nodes topo) nodes in
  let f_leaf =
    Sim.Bitset.of_array (Topology.num_leaf_l2_cables topo) leaf_cables
  in
  let f_l2 = Sim.Bitset.of_array (Topology.num_l2_spine_cables topo) l2_cables in
  fun (a : Alloc.t) ->
    Sim.Bitset.intersects_array f_nodes a.nodes
    || Sim.Bitset.intersects_array f_leaf a.leaf_cables
    || Sim.Bitset.intersects_array f_l2 a.l2_cables

(* Earliest estimated completion time at which [job] could be placed,
   with the allocation it would get then.  [running] pairs each live
   allocation with its estimated end time; [None] means the job cannot
   be placed even on the fully drained machine.  With [prof], every
   probe bumps [sched/reservation_probes].

   Completions sharing an estimated end free resources together, so they
   form one candidate instant; prefix k is the live state with groups
   0..k released, in group order and list order within a group.  Every
   probe runs on a state equal, observable for observable, to a fresh
   copy of the live state with its prefix released — the caches the
   arenas keep warm answer exactly as cold ones would — so the probe
   order below alone decides the answer. *)
let reservation ?prof (alloc : Allocator.t) ar ~running ~job =
  (* Size-negotiating probe with failure provenance collapsed: for rigid
     jobs this is the scheme's plain probe, so pre-molding reservations
     are unchanged; a moldable head reserves the largest grant its
     [min_size, pref] range admits at each candidate instant. *)
  let sized st j =
    match alloc.Allocator.probe_sized st j with
    | Allocator.Sized { alloc = a; _ } -> Some a
    | Allocator.Sized_no_fit | Allocator.Sized_gave_up -> None
  in
  let try_sized st j =
    (match prof with
    | Some p -> Obs.Prof.incr p "sched/reservation_probes"
    | None -> ());
    sized st j
  in
  (* Stable, so completions sharing an end keep their list order. *)
  let completions = Array.of_list running in
  Array.stable_sort (fun (a, _) (b, _) -> Float.compare a b) completions;
  (* Group completions sharing an estimated end: freed together. *)
  let groups =
    let acc = ref [] in
    Array.iter
      (fun (t, a) ->
        match !acc with
        | (t', rs) :: rest when t' = t -> acc := (t, a :: rs) :: rest
        | _ -> acc := (t, [ a ]) :: !acc)
      completions;
    Array.of_list (List.rev !acc)
  in
  let g = Array.length groups in
  let release_group st k =
    List.iter (fun a -> State.release st a) (snd groups.(k))
  in
  let mirror dst =
    State.copy_into ~src:ar.live ~dst;
    dst
  in
  let fresh () = State.create (State.topo ar.live) in
  let drained_copy dst =
    let d = mirror dst in
    for k = 0 to g - 1 do
      release_group d k
    done;
    d
  in
  let scratch () =
    let sc = match ar.scratch with Some sc -> sc | None -> fresh () in
    ar.scratch <- Some sc;
    mirror sc
  in
  if g = 0 then None
  else if alloc.budgeted then begin
    (* A failing LC/LC+S probe can burn its whole search budget, so
       probe as few prefixes as the answer needs.  The drained machine
       (prefix g-1) goes first, so a head that never fits costs one
       probe.  Then a galloping search: prefixes 0, 1, 3, 7, …, the
       last clamped to g-2, until one fits; then a bisection between
       the last miss and that first fit, keeping the lower half on a
       fit.  Heads mostly fit after a few completions, so galloping
       finds them in O(log k) probes for answer k, where a bisection
       over all g groups always takes log g.  Without give-ups,
       feasibility is monotone in the prefix and the answer is the
       forward walk's; a probe that gives up reads as no fit, so then
       the answer is the one this exact sequence finds.  The drained
       probe runs on the persistent drained arena; the others share
       one scratch refresh, the scratch moving from the last probed
       prefix to the next. *)
    let fault_ops =
      let c = State.counters ar.live in
      c.failures + c.repairs
    in
    let drained_fit =
      match ar.drained with
      | Some (d, built_at) when built_at = fault_ops ->
          let fit = try_sized d job in
          (* JIGSAW_VALIDATE=1 re-derives every reused drained verdict. *)
          if
            State.forced_validation
            && sized (drained_copy (fresh ())) job <> fit
          then
            failwith
              (Printf.sprintf
                 "Simulator: reused drained arena's verdict for job %d \
                  differs from a freshly drained machine's"
                 job.Trace.Job.id);
          fit
      | stale ->
          let d =
            drained_copy
              (match stale with Some (d, _) -> d | None -> fresh ())
          in
          ar.drained <- Some (d, fault_ops);
          try_sized d job
    in
    match drained_fit with
    | None -> None
    | Some last_alloc ->
        let sc = scratch () in
        let at = ref (-1) (* groups 0..!at are released in [sc] *) in
        let attempt k =
          while !at < k do
            incr at;
            release_group sc !at
          done;
          while !at > k do
            List.iter
              (fun a -> State.unrelease sc a)
              (List.rev (snd groups.(!at)));
            decr at
          done;
          try_sized sc job
        in
        (* Prefixes below [lo] missed; [hi] fits with [best]. *)
        let lo = ref 0 and hi = ref (g - 1) and best = ref last_alloc in
        let rec gallop k =
          match attempt k with
          | Some a ->
              best := a;
              hi := k
          | None ->
              lo := k + 1;
              if !lo < !hi then gallop (min ((2 * k) + 1) (g - 2))
        in
        if g > 1 then gallop 0;
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          match attempt mid with
          | Some a ->
              best := a;
              hi := mid
          | None -> lo := mid + 1
        done;
        Some (fst groups.(!hi), !best)
  end
  else begin
    (* Cheap definitive probes: the scratch state walks the completion
       groups forward, releasing each incrementally — one refresh total
       instead of one per probe. *)
    let probe = scratch () in
    let rec walk k =
      if k >= g then None
      else begin
        release_group probe k;
        match try_sized probe job with
        | Some a -> Some (fst groups.(k), a)
        | None -> walk (k + 1)
      end
    in
    walk 0
  end

(* Probe the live state through the no-fit memo: a job class that
   definitively failed is not re-searched until something is released.
   Only used against [sim.st] — reservation probes run on the scratch
   state, whose resources differ, so they bypass the memo entirely. *)
let probe_memo sim (j : Trace.Job.t) =
  let rg = State.release_generation sim.st in
  if rg <> sim.nofit_release_gen then begin
    Hashtbl.reset sim.nofit;
    sim.nofit_release_gen <- rg
  end;
  (* The sized probe's only definitive failure is infeasibility at the
     job's minimum size, so that is the memo key — for rigid jobs it
     equals [j.size] and the memo behaves exactly as before. *)
  let key = (Trace.Job.min_size j, j.bw_class) in
  if Hashtbl.mem sim.nofit key then (Obs.Event.Memo_hit, None)
  else
    match sim.cfg.allocator.probe_sized sim.st j with
    | Allocator.Sized { alloc = a; granted = _ } -> (Obs.Event.Fit, Some a)
    | Allocator.Sized_no_fit ->
        Hashtbl.replace sim.nofit key ();
        (Obs.Event.Infeasible, None)
    | Allocator.Sized_gave_up -> (Obs.Event.Exhausted, None)

(* The instrumented probe: the memoized search runs under both clocks
   (the metric's [sched_clock] inside, the profiling span outside, so
   profiling overhead never pollutes [sched_time_per_job]), then the
   outcome goes to the trace as an [Attempt] and to the probe counters. *)
let probe_job sim ~ctx (j : Trace.Job.t) =
  let span =
    match ctx with
    | Obs.Event.Head -> "sched/head_probe"
    | Obs.Event.Backfill -> "sched/backfill_probe"
  in
  let outcome, alloc =
    prof_span sim span (fun () -> timed sim (fun () -> probe_memo sim j))
  in
  prof_incr sim
    (match outcome with
    | Obs.Event.Fit -> "probe/fit"
    | Obs.Event.Infeasible -> "probe/infeasible"
    | Obs.Event.Exhausted -> "probe/exhausted"
    | Obs.Event.Memo_hit -> "probe/memo_hit");
  emit sim (fun () ->
      let nodes, leaf_cables, l2_cables =
        match alloc with
        | Some (a : Alloc.t) ->
            ( Array.length a.nodes,
              Array.length a.leaf_cables,
              Array.length a.l2_cables )
        | None -> (0, 0, 0)
      in
      Obs.Event.Attempt { job = j.id; ctx; outcome; nodes; leaf_cables; l2_cables });
  alloc

let clear_reservation sim id =
  match sim.reserved with
  | Some (rid, _) when rid = id ->
      sim.reserved <- None;
      emit sim (fun () -> Obs.Event.Reservation_clear { job = id })
  | _ -> ()

(* Start a job now: claim its allocation and schedule its completion.
   The allocation came from a pure probe against this same state, so the
   expensive claim validation is skipped (JIGSAW_VALIDATE=1 re-enables
   it; the test suite covers the checked path). *)
let rec start_job sim ~ctx (j : Trace.Job.t) (alloc : Alloc.t) =
  claim_live sim alloc;
  let now = Sim.Engine.now sim.engine in
  (* [alloc.size] is the granted size — the sized probe may have molded
     the job below its nominal request.  For rigid jobs it equals
     [j.size], so everything below reduces to the pre-molding code. *)
  let granted = alloc.Alloc.size in
  let dur = job_runtime sim j ~granted in
  let r_end = now +. dur in
  let est_end = now +. job_estimate j ~granted in
  let attempt = Option.value (Hashtbl.find_opt sim.kills j.id) ~default:0 in
  Hashtbl.replace sim.running j.id
    { r_job = j; r_alloc = alloc; r_start = now; r_end;
      r_est_end = est_end; r_attempt = attempt; r_epoch = 0 };
  sim.acc.alloc_busy <- sim.acc.alloc_busy + Array.length alloc.nodes;
  sim.acc.req_busy <- sim.acc.req_busy + granted;
  sim.acc.last_start_time <- now;
  sim.acc.started_total <- sim.acc.started_total + 1;
  if sim.acc.first_start_time < 0.0 then sim.acc.first_start_time <- now;
  clear_reservation sim j.id;
  prof_incr sim
    (match ctx with
    | Obs.Event.Head -> "sched/starts"
    | Obs.Event.Backfill -> "sched/backfill_starts");
  emit sim (fun () ->
      Obs.Event.Start
        {
          job = j.id;
          ctx;
          nodes = Array.length alloc.nodes;
          leaf_cables = Array.length alloc.leaf_cables;
          l2_cables = Array.length alloc.l2_cables;
          est_end;
          attempt;
        });
  net_route sim ~retract:false alloc;
  Sim.Engine.schedule sim.engine ~time:r_end
    (Complete { job = j.id; attempt; epoch = 0 });
  record sim

and complete_job sim id ~attempt ~epoch =
  match Hashtbl.find_opt sim.running id with
  | None -> ()
  | Some r when r.r_attempt <> attempt || r.r_epoch <> epoch -> ()
  | Some r ->
      Hashtbl.remove sim.running id;
      release_live sim r.r_alloc;
      sim.acc.alloc_busy <- sim.acc.alloc_busy - Array.length r.r_alloc.nodes;
      sim.acc.req_busy <- sim.acc.req_busy - r.r_alloc.Alloc.size;
      sim.finished <-
        { Metrics.job = r.r_job; start_time = r.r_start; end_time = r.r_end }
        :: sim.finished;
      sim.finished_count <- sim.finished_count + 1;
      emit sim (fun () ->
          Obs.Event.Complete
            {
              job = id;
              started = r.r_start;
              waited = r.r_start -. r.r_job.arrival;
            });
      net_route sim ~retract:true r.r_alloc;
      record sim;
      request_pass sim

(* Swap a running job's allocation for a replacement at a new granted
   size (the two-step release/claim the resize verdicts are specified
   against), compressing the remaining work onto the new node count:
   remaining node-seconds are conserved, so the time left scales by
   [old/new].  The epoch bump strands the superseded completion event —
   its guard in [complete_job] drops it — and a fresh one is scheduled
   under the new epoch. *)
and swap_alloc sim (r : running) (new_alloc : Alloc.t) =
  let now = Sim.Engine.now sim.engine in
  release_live sim r.r_alloc;
  claim_live sim new_alloc;
  let acc = sim.acc in
  acc.alloc_busy <-
    acc.alloc_busy - Array.length r.r_alloc.nodes + Array.length new_alloc.nodes;
  acc.req_busy <- acc.req_busy - r.r_alloc.Alloc.size + new_alloc.Alloc.size;
  let scale t =
    now
    +. (t -. now)
       *. float_of_int r.r_alloc.Alloc.size
       /. float_of_int new_alloc.Alloc.size
  in
  let r' =
    {
      r with
      r_alloc = new_alloc;
      r_end = scale r.r_end;
      r_est_end = scale r.r_est_end;
      r_epoch = r.r_epoch + 1;
    }
  in
  Hashtbl.replace sim.running r.r_job.id r';
  net_route sim ~retract:true r.r_alloc;
  net_route sim ~retract:false new_alloc;
  Sim.Engine.schedule sim.engine ~time:r'.r_end
    (Complete { job = r.r_job.id; attempt = r.r_attempt; epoch = r'.r_epoch });
  record sim;
  r'

(* An online or molding-up resize: swap the allocation and announce the
   new size and estimated end. *)
and resize_job sim (r : running) (new_alloc : Alloc.t) =
  let r' = swap_alloc sim r new_alloc in
  emit sim (fun () ->
      Obs.Event.Resize
        {
          job = r.r_job.id;
          from_size = r.r_alloc.Alloc.size;
          to_size = new_alloc.Alloc.size;
          new_end = r'.r_est_end;
        })

(* Molding up: when the queue has fully drained, offer idle capacity to
   the running moldable jobs (in job-id order, for determinism) that
   were granted less than their maximum.  Growth only ever uses
   resources no queued job is waiting for — the pass runs strictly on an
   empty queue — and each job takes the largest feasible target in
   (granted, max], found by binary search on the resize probe. *)
and grow_pass sim =
  let candidates =
    Hashtbl.fold
      (fun _ r acc ->
        if
          Trace.Job.is_moldable r.r_job
          && r.r_alloc.Alloc.size < Trace.Job.max_size r.r_job
        then r :: acc
        else acc)
      sim.running []
    |> List.sort (fun a b -> compare a.r_job.id b.r_job.id)
  in
  List.iter
    (fun r0 ->
      (* Re-read: an earlier grow in this pass (derived re-probe grows
         can relocate) may have consumed the nodes this one planned on,
         and the job may even have completed meanwhile (it cannot — no
         time passes — but the lookup also drops any stale [r0]). *)
      match Hashtbl.find_opt sim.running r0.r_job.id with
      | None -> ()
      | Some r when r.r_epoch <> r0.r_epoch -> ()
      | Some r ->
          let cur = r.r_alloc.Alloc.size in
          let try_target target =
            match
              sim.cfg.allocator.try_resize sim.st r.r_job ~current:r.r_alloc
                ~target
            with
            | Allocator.Resized a -> Some a
            | Allocator.No_resize -> None
          in
          let upper = Trace.Job.max_size r.r_job in
          let best =
            match try_target upper with
            | Some _ as grown -> grown
            | None ->
                (* Largest feasible target in (cur, upper): grow
                   feasibility is antitone in the target for every
                   bundled resize path, so binary search applies. *)
                let lo = ref cur and hi = ref upper in
                let best = ref None in
                while !hi - !lo > 1 do
                  let mid = (!lo + !hi) / 2 in
                  match try_target mid with
                  | Some _ as grown ->
                      lo := mid;
                      best := grown
                  | None -> hi := mid
                done;
                !best
          in
          match best with
          | None -> ()
          | Some new_alloc ->
              sim.acc.grown <- sim.acc.grown + 1;
              resize_job sim r new_alloc)
    candidates

and request_pass sim =
  if not sim.pass_scheduled then begin
    sim.pass_scheduled <- true;
    (* Never checkpointed: passes always run at the current instant, so
       [run_until] drains them before a snapshot. *)
    Sim.Engine.schedule sim.engine ~time:(Sim.Engine.now sim.engine) Pass
  end

(* Earliest future completion time at which the head job could be placed,
   together with the concrete allocation it would get then.  Returns
   [None] if the job cannot be placed even on the fully drained
   machine.  Memoized in [sim.res_memo]. *)
and compute_reservation sim (head : Trace.Job.t) =
  (* The scheduler plans against ESTIMATED completions — it cannot know
     actual runtimes.  Since estimates are >= actuals, the reservation is
     conservative; the head still starts earlier if resources free up
     sooner (every completion triggers a scheduling pass). *)
  let search ?prof () =
    let running =
      Hashtbl.fold
        (fun _ r acc -> (r.r_est_end, r.r_alloc) :: acc)
        sim.running []
    in
    reservation ?prof sim.cfg.allocator sim.arenas ~running ~job:head
  in
  let gen = State.generation sim.st in
  match sim.res_memo with
  | Some (h, g, answer) when h == head && g = gen ->
      prof_incr sim "sched/reservation_reused";
      (* JIGSAW_VALIDATE=1 re-derives every reused answer. *)
      if State.forced_validation && search () <> answer then
        failwith
          (Printf.sprintf
             "Simulator: reused reservation for job %d at generation %d \
              differs from a fresh search"
             head.id gen);
      answer
  | _ ->
      let answer =
        prof_span sim "sched/reservation" (fun () ->
            timed sim (search ?prof:sim.cfg.prof))
      in
      sim.res_memo <- Some (head, gen, answer);
      answer

and schedule_pass sim =
  emit sim (fun () ->
      Obs.Event.Pass_start { pending = Hashtbl.length sim.pending });
  prof_incr sim "sched/passes";
  let started_before = sim.acc.started_total in
  run_pass sim;
  emit sim (fun () ->
      Obs.Event.Pass_end { started = sim.acc.started_total - started_before })

and run_pass sim =
  (* A queue entry is live iff the job is still pending AND the entry
     carries the job's current enqueue stamp — a started-then-requeued
     job's stale entry has an old stamp and is skipped even though the
     pending table holds the id again. *)
  let live (id, gen) =
    Hashtbl.mem sim.pending id && Hashtbl.find_opt sim.pending_gen id = Some gen
  in
  (* Pop dead entries off the queue head. *)
  let rec head_job () =
    match Queue.peek_opt sim.pending_ids with
    | None -> None
    | Some ((id, _) as entry) ->
        if live entry then Hashtbl.find_opt sim.pending id
        else begin
          ignore (Queue.pop sim.pending_ids);
          head_job ()
        end
  in
  (* Phase 1: start jobs from the head while they fit. *)
  let rec drain_head () =
    match head_job () with
    | None -> None
    | Some j -> (
        match probe_job sim ~ctx:Obs.Event.Head j with
        | Some alloc ->
            ignore (Queue.pop sim.pending_ids);
            Hashtbl.remove sim.pending j.id;
            start_job sim ~ctx:Obs.Event.Head j alloc;
            drain_head ()
        | None -> Some j)
  in
  match drain_head () with
  | None ->
      (* Queue fully drained: no job is waiting on the idle capacity, so
         offer it to the running moldable jobs.  A no-op on rigid
         traces. *)
      grow_pass sim
  | Some head -> (
      if sim.acc.first_blocked_time < 0.0 then
        sim.acc.first_blocked_time <- Sim.Engine.now sim.engine;
      let oversized =
        Trace.Job.min_size head > Fattree.Topology.num_nodes (State.topo sim.st)
      in
      (* Reject the head and continue with the rest. *)
      let reject () =
        ignore (Queue.pop sim.pending_ids);
        Hashtbl.remove sim.pending head.id;
        sim.acc.rejected <- sim.acc.rejected + 1;
        clear_reservation sim head.id;
        emit sim (fun () -> Obs.Event.Reject { job = head.id });
        request_pass sim
      in
      if not sim.cfg.backfill then begin
        (* Plain FIFO: the head simply waits for resources.  Oversized
           requests must still be rejected, or they would wedge the
           queue forever. *)
        if oversized then reject ()
      end
      else
        (* Phase 2: reservation for the head... *)
        match compute_reservation sim head with
        | None
          when oversized
               || (not (State.has_failures sim.st))
               || sim.acc.pending_repairs = 0 ->
            (* Definitively impossible: the job exceeds nameplate
               capacity, or even the fully drained machine — healthy, or
               degraded with no repair left to ever enlarge it. *)
            reject ()
        | None ->
            (* The head only exceeds *currently surviving* capacity: a
               scheduled repair may make it feasible, so leave it blocked.
               Each repair bumps [release_generation] and requests a pass,
               which retries this reservation. *)
            ()
        | Some (res_time, res_alloc) ->
            if sim.reserved <> Some (head.id, res_time) then begin
              sim.reserved <- Some (head.id, res_time);
              emit sim (fun () ->
                  Obs.Event.Reservation_set
                    {
                      job = head.id;
                      at = res_time;
                      nodes = Array.length res_alloc.nodes;
                      leaf_cables = Array.length res_alloc.leaf_cables;
                      l2_cables = Array.length res_alloc.l2_cables;
                    })
            end;
            (* ...phase 3: EASY backfill within the lookahead window. *)
            let touches_reservation =
              footprint (State.topo sim.st) ~nodes:res_alloc.nodes
                ~leaf_cables:res_alloc.leaf_cables
                ~l2_cables:res_alloc.l2_cables
            in
            let candidates =
              let acc = ref [] and count = ref 0 in
              (try
                 Queue.iter
                   (fun ((id, _) as entry) ->
                     if !count >= sim.cfg.backfill_window then raise Exit;
                     if live entry && id <> head.id then begin
                       incr count;
                       acc := Hashtbl.find sim.pending id :: !acc
                     end)
                   sim.pending_ids
               with Exit -> ());
              List.rev !acc
            in
            List.iter
              (fun (j : Trace.Job.t) ->
                (* Membership is re-checked at start time, not just at
                   collection time: stamped entries make duplicates
                   impossible today, but a double start would silently
                   leak an allocation, so the guard is cheap insurance. *)
                if
                  Hashtbl.mem sim.pending j.id
                  && State.total_free_nodes sim.st >= Trace.Job.min_size j
                then begin
                  match probe_job sim ~ctx:Obs.Event.Backfill j with
                  | Some alloc ->
                      let now = Sim.Engine.now sim.engine in
                      let fits_before =
                        now +. job_estimate j ~granted:alloc.Alloc.size
                        <= res_time
                      in
                      if fits_before || not (touches_reservation alloc)
                      then begin
                        Hashtbl.remove sim.pending j.id;
                        start_job sim ~ctx:Obs.Event.Backfill j alloc
                      end
                  | None -> ()
                end)
              candidates)

let arrive sim (j : Trace.Job.t) =
  (* A fresh stamp per (re-)arrival: any stale queue entry left behind
     by a backfill start of an earlier attempt goes permanently dead,
     and the job is live only at the back of the queue. *)
  let gen = 1 + Option.value (Hashtbl.find_opt sim.pending_gen j.id) ~default:(-1) in
  Hashtbl.replace sim.pending_gen j.id gen;
  Queue.add (j.id, gen) sim.pending_ids;
  Hashtbl.replace sim.pending j.id j;
  emit sim (fun () -> Obs.Event.Arrival { job = j.id; size = j.size });
  (* No sample here: Table 2 measures utilization at schedule and
     completion events only, and arrivals do not change occupancy. *)
  request_pass sim

(* ---- faults -------------------------------------------------------- *)

(* Kill a running job whose partition lost a resource: release what is
   left of its allocation (failed nodes stay withdrawn), then either
   resubmit the job after the configured delay or abandon it. *)
let kill_job sim (r : running) =
  Hashtbl.remove sim.running r.r_job.id;
  release_live sim r.r_alloc;
  sim.acc.alloc_busy <- sim.acc.alloc_busy - Array.length r.r_alloc.nodes;
  sim.acc.req_busy <- sim.acc.req_busy - r.r_alloc.Alloc.size;
  sim.acc.interrupted <- sim.acc.interrupted + 1;
  let now = Sim.Engine.now sim.engine in
  let kills =
    1 + Option.value (Hashtbl.find_opt sim.kills r.r_job.id) ~default:0
  in
  Hashtbl.replace sim.kills r.r_job.id kills;
  let requeue =
    sim.cfg.resilience.requeue && kills <= sim.cfg.resilience.max_retries
  in
  (* The work lost is what the granted nodes actually computed: under
     work-conserving molding a shrunk job burns [granted] node-seconds
     per second, not its nominal request.  Equal for rigid jobs. *)
  let lost = (now -. r.r_start) *. float_of_int r.r_alloc.Alloc.size in
  if sim.cfg.resilience.charge_lost_work || not requeue then
    sim.acc.lost_node_time <- sim.acc.lost_node_time +. lost;
  emit sim (fun () ->
      Obs.Event.Kill { job = r.r_job.id; attempt = r.r_attempt; lost });
  net_route sim ~retract:true r.r_alloc;
  if requeue then begin
    sim.acc.requeued <- sim.acc.requeued + 1;
    let resume_at = now +. sim.cfg.resilience.resubmit_delay in
    emit sim (fun () ->
        Obs.Event.Requeue { job = r.r_job.id; attempt = kills; resume_at });
    Sim.Engine.schedule sim.engine ~time:resume_at (Arrive r.r_job.id)
  end
  else begin
    sim.acc.abandoned <- sim.acc.abandoned + 1;
    emit sim (fun () ->
        Obs.Event.Abandon { job = r.r_job.id; attempt = r.r_attempt })
  end

(* Fault recovery by molding (the [resilience.shrink] policy): a
   moldable victim that only lost nodes — every cable intact — and can
   still meet its minimum size retracts exactly the failed nodes' share
   and compresses the remaining work onto the survivors.  No work is
   lost and no kill/requeue/retry is consumed.  Anything else (would
   drop below [min_size], rigid job, allocator refuses) falls back to
   the ordinary kill path; a victim with a failed cable is one the
   allocator refuses, since every [try_resize] shrinks through
   [Allocator.shrink_in_place]. *)
let shrink_or_kill sim (r : running) =
  let alloc = r.r_alloc in
  let failed_nodes =
    Array.fold_left
      (fun acc nd -> if State.node_failed sim.st nd then acc + 1 else acc)
      0 alloc.Alloc.nodes
  in
  let target = alloc.Alloc.size - failed_nodes in
  if
    not
      (sim.cfg.resilience.shrink
      && Trace.Job.is_moldable r.r_job
      && failed_nodes > 0
      && target >= Trace.Job.min_size r.r_job)
  then kill_job sim r
  else
    match
      sim.cfg.allocator.try_resize sim.st r.r_job ~current:alloc ~target
    with
    | Allocator.No_resize -> kill_job sim r
    | Allocator.Resized new_alloc ->
        sim.acc.shrunk <- sim.acc.shrunk + 1;
        emit sim (fun () ->
            Obs.Event.Shrink_recover
              {
                job = r.r_job.id;
                attempt = r.r_attempt;
                from_size = alloc.Alloc.size;
                to_size = new_alloc.Alloc.size;
              });
        ignore (swap_alloc sim r new_alloc)

let fault_event sim (e : Trace.Faults.event) =
  match e.kind with
  | Trace.Faults.Repair ->
      (* Behaves like a release: bumps the state's release generation,
         which invalidates the no-fit memo, and may unblock the queue. *)
      Trace.Faults.revert sim.st e.target;
      sim.acc.pending_repairs <- sim.acc.pending_repairs - 1;
      emit sim (fun () ->
          Obs.Event.Repair
            {
              target = Trace.Faults.target_name e.target;
              id = Trace.Faults.target_id e.target;
            });
      record sim;
      request_pass sim
  | Trace.Faults.Fail ->
      Trace.Faults.apply sim.st e.target;
      sim.acc.fault_events <- sim.acc.fault_events + 1;
      let topo = State.topo sim.st in
      let nodes, leaf_cables, l2_cables =
        Trace.Faults.resources topo e.target
      in
      emit sim (fun () ->
          Obs.Event.Fail
            {
              target = Trace.Faults.target_name e.target;
              id = Trace.Faults.target_id e.target;
              nodes = Array.length nodes;
              leaf_cables = Array.length leaf_cables;
              l2_cables = Array.length l2_cables;
            });
      (* Cheap prefilter before the O(running) victim scan: a fault can
         only kill jobs if it touches a claimed node or cable, and claim
         accounting ignores the failure overlay just applied.  Under
         MTBF workloads most faults land on idle resources, so the
         common case is three short-circuiting membership walks. *)
      let touches_claimed =
        State.any_claimed_in sim.st nodes
        || Array.exists (State.leaf_cable_claimed sim.st) leaf_cables
        || Array.exists (State.l2_cable_claimed sim.st) l2_cables
      in
      let victims =
        if not touches_claimed then []
        else begin
          let hit = footprint topo ~nodes ~leaf_cables ~l2_cables in
          Hashtbl.fold
            (fun _ r acc -> if hit r.r_alloc then r :: acc else acc)
            sim.running []
          (* Hash-table fold order is an implementation detail; kill (and
             hence requeue) in job-id order so same-instant resubmissions
             enter the queue deterministically across OCaml versions. *)
          |> List.sort (fun a b -> compare a.r_job.id b.r_job.id)
        end
      in
      List.iter (shrink_or_kill sim) victims;
      record sim;
      (* Kills released healthy resources; the fault alone only removed
         some, so a pass is useful only after a kill (a shrink recovery
         frees nothing healthy, but a pass is still harmless). *)
      if victims <> [] then request_pass sim

let dispatch sim ev =
  (match ev with
  | Arrive id -> arrive sim (Hashtbl.find sim.jobs_by_id id)
  | Complete { job; attempt; epoch } -> complete_job sim job ~attempt ~epoch
  | Fault i -> fault_event sim sim.faults.(i)
  | Pass ->
      sim.pass_scheduled <- false;
      schedule_pass sim);
  match sim.cfg.prof with
  | Some p ->
      Obs.Prof.sample p "gauge/event_queue"
        (float_of_int (Sim.Engine.pending sim.engine))
  | None -> ()

(* ---- online operations (daemon front-end) -------------------------- *)

(* The three mutators below are the daemon's write surface.  Each one
   only *schedules* engine events; the caller is expected to follow up
   with [run_until] to the stamped time, which executes them and drains
   any same-instant scheduling pass — keeping the simulation
   snapshot-able between operations.  All are pure functions of the
   simulation state and their arguments, so a WAL replay of the same
   calls with the same stamps reproduces the run bit-identically. *)

let submit sim (j : Trace.Job.t) =
  if Hashtbl.mem sim.jobs_by_id j.id then
    Error (Printf.sprintf "job %d already exists" j.id)
  else if j.arrival < Sim.Engine.now sim.engine then
    Error
      (Printf.sprintf "job %d arrival %.17g is in the past (now %.17g)" j.id
         j.arrival (Sim.Engine.now sim.engine))
  else begin
    Hashtbl.replace sim.jobs_by_id j.id j;
    sim.dyn_jobs <- j :: sim.dyn_jobs;
    Sim.Engine.schedule sim.engine ~time:j.arrival (Arrive j.id);
    Ok ()
  end

type cancel_outcome = Cancelled | Not_pending | Unknown_job

let cancel sim id =
  if not (Hashtbl.mem sim.jobs_by_id id) then Unknown_job
  else if not (Hashtbl.mem sim.pending id) then
    (* Running, finished, rejected, abandoned, or not yet arrived — the
       queue entry is the only thing a cancel may retract. *)
    Not_pending
  else begin
    Hashtbl.remove sim.pending id;
    (* Dropping the generation kills the queue entry lazily, exactly
       like a requeue invalidates a backfilled job's stale entry. *)
    Hashtbl.remove sim.pending_gen id;
    sim.acc.cancelled <- sim.acc.cancelled + 1;
    clear_reservation sim id;
    record sim;
    (* The head (or its reservation) may have been the cancelled job;
       re-run the pass so the queue reflects the withdrawal. *)
    request_pass sim;
    Cancelled
  end

type resize_outcome = Resized_to of int | Resize_refused of string

(* Online resize of a running moldable job to an explicit size within
   its declared [min_size, max_size] range.  A refusal is a legitimate
   reply, not corruption: the outcome is a deterministic function of the
   simulation state and the arguments, so a WAL replay reproduces it. *)
let resize sim id ~size =
  let refuse fmt = Printf.ksprintf (fun m -> Resize_refused m) fmt in
  if not (Hashtbl.mem sim.jobs_by_id id) then refuse "unknown job %d" id
  else
    match Hashtbl.find_opt sim.running id with
    | None -> refuse "job %d is not running" id
    | Some r when not (Trace.Job.is_moldable r.r_job) ->
        refuse "job %d is rigid" id
    | Some r
      when size < Trace.Job.min_size r.r_job
           || size > Trace.Job.max_size r.r_job ->
        refuse "size %d outside job %d's moldable range [%d, %d]" size id
          (Trace.Job.min_size r.r_job)
          (Trace.Job.max_size r.r_job)
    | Some r when size = r.r_alloc.Alloc.size -> Resized_to size
    | Some r -> (
        match
          sim.cfg.allocator.try_resize sim.st r.r_job ~current:r.r_alloc
            ~target:size
        with
        | Allocator.No_resize ->
            refuse "no feasible allocation for job %d at size %d" id size
        | Allocator.Resized new_alloc ->
            resize_job sim r new_alloc;
            (* A shrink released healthy nodes the queue may be waiting
               for; a grow consumed some — either way the pass is due. *)
            request_pass sim;
            Resized_to new_alloc.Alloc.size)

let inject_fault sim (e : Trace.Faults.event) =
  if e.time < Sim.Engine.now sim.engine then
    Error
      (Printf.sprintf "fault time %.17g is in the past (now %.17g)" e.time
         (Sim.Engine.now sim.engine))
  else
    match Trace.Faults.resources (State.topo sim.st) e.target with
    | exception Invalid_argument m -> Error m
    | _ ->
        (* Appended, not merged in time order: [of_snapshot] rebuilds the
           log with [Faults.of_ordered], so the index keeps naming this
           event across a restore even though its time may precede
           later-positioned static events. *)
        sim.faults <- Array.append sim.faults [| e |];
        if e.kind = Trace.Faults.Repair then
          sim.acc.pending_repairs <- sim.acc.pending_repairs + 1;
        Sim.Engine.schedule sim.engine ~time:e.time
          (Fault (Array.length sim.faults - 1));
        Ok ()

let pending_count sim = Hashtbl.length sim.pending
let running_count sim = Hashtbl.length sim.running
let finished_count sim = sim.finished_count
let cancelled_count sim = sim.acc.cancelled
let rejected_count sim = sim.acc.rejected
let known_job sim id = Hashtbl.mem sim.jobs_by_id id

let net_summary sim =
  Option.map
    (fun nt -> Routing.Telemetry.summary nt ~now:(Sim.Engine.now sim.engine))
    sim.net
let max_job_id sim = Hashtbl.fold (fun id _ acc -> max id acc) sim.jobs_by_id (-1)

let fault_log sim = sim.faults

(* Shared by [start] and [of_snapshot]: emit the run header, so every
   trace segment — a resumed one too — opens self-describing. *)
let open_run sim =
  emit sim (fun () ->
      Obs.Event.Run_meta
        {
          trace = sim.workload.name;
          scheme = sim.cfg.allocator.name;
          scenario = Trace.Scenario.name sim.cfg.scenario;
          radix = sim.cfg.radix;
          nodes = Fattree.Topology.num_nodes (State.topo sim.st);
          jobs = Array.length sim.workload.jobs;
        })

(* The one sim constructor, shared by [start] and [of_snapshot]: a fresh
   cluster, empty queues and memos, the workload's jobs indexed by id,
   and telemetry (if configured) opened at the engine's clock. *)
let create (cfg : config) (w : Trace.Workload.t) ~engine ~acc =
  let topo = Fattree.Topology.of_radix cfg.radix in
  let st = State.create topo in
  let sim =
    {
      cfg;
      workload = w;
      st;
      engine;
      pending_ids = Queue.create ();
      pending = Hashtbl.create 1024;
      pending_gen = Hashtbl.create 1024;
      running = Hashtbl.create 256;
      nofit = Hashtbl.create 64;
      nofit_release_gen = 0;
      pass_scheduled = false;
      acc;
      samples = [];
      finished = [];
      finished_count = 0;
      kills = Hashtbl.create 64;
      reserved = None;
      res_memo = None;
      arenas = arenas st;
      jobs_by_id = Hashtbl.create (max 16 (Array.length w.jobs));
      dyn_jobs = [];
      faults = Trace.Faults.events cfg.faults;
      net =
        Option.map
          (fun (policy, shape) ->
            Routing.Telemetry.create topo ~policy ~shape
              ~now:(Sim.Engine.now engine))
          cfg.net;
    }
  in
  Array.iter
    (fun (j : Trace.Job.t) -> Hashtbl.replace sim.jobs_by_id j.id j)
    w.jobs;
  sim

let start (cfg : config) (w : Trace.Workload.t) =
  let sim =
    create cfg w
      ~engine:(Sim.Engine.create ~priority:event_priority)
      ~acc:
        (Accumulators.create
           ~pending_repairs:
             (Array.fold_left
                (fun n (e : Trace.Faults.event) ->
                  if e.kind = Trace.Faults.Repair then n + 1 else n)
                0
                (Trace.Faults.events cfg.faults)))
  in
  open_run sim;
  Array.iter
    (fun (j : Trace.Job.t) ->
      Sim.Engine.schedule sim.engine ~time:j.arrival (Arrive j.id))
    w.jobs;
  Array.iteri
    (fun i (e : Trace.Faults.event) ->
      Sim.Engine.schedule sim.engine ~time:e.time (Fault i))
    sim.faults;
  sim

let now sim = Sim.Engine.now sim.engine
let is_finished sim = Sim.Engine.pending sim.engine = 0

let run_until sim horizon =
  Sim.Engine.run_until sim.engine (dispatch sim) horizon;
  (* [run_until] drains every event at or before the horizon, so any
     same-instant scheduling pass has run too. *)
  assert (not sim.pass_scheduled)

let finish sim =
  let cfg = sim.cfg in
  let w = sim.workload in
  let topo = State.topo sim.st in
  Sim.Engine.run sim.engine (dispatch sim);
  (* Import the externally maintained tallies so the profile report is
     self-contained: one registry holds the whole run's cost picture. *)
  (match cfg.prof with
  | Some p ->
      let c = State.counters sim.st in
      Obs.Prof.set p "state/clones" c.clones;
      Obs.Prof.set p "state/claims" c.claims;
      Obs.Prof.set p "state/releases" c.releases;
      Obs.Prof.set p "state/failures" c.failures;
      Obs.Prof.set p "state/repairs" c.repairs;
      Obs.Prof.set p "engine/steps" (Sim.Engine.steps sim.engine)
  | None -> ());
  Obs.Sink.flush cfg.sink;
  (* ---- metrics ---- *)
  let n_nodes = Fattree.Topology.num_nodes topo in
  let samples = Array.of_list (List.rev sim.samples) in
  (* Steady state: from the moment demand first exceeds the machine (a
     head job blocks) until the last job start; this trims both the
     cold-start ramp and the final drain (paper section 5).  Traces that
     never saturate fall back to the first job start. *)
  let steady_start =
    if sim.acc.first_blocked_time >= 0.0 then sim.acc.first_blocked_time
    else Float.max 0.0 sim.acc.first_start_time
  in
  let steady_end = sim.acc.last_start_time in
  let alloc_area = ref 0.0 and req_area = ref 0.0 and healthy_area = ref 0.0 in
  let hist = Sim.Stats.Hist.create ~boundaries:Metrics.table2_boundaries in
  let prev_t = ref steady_start
  and prev_alloc = ref 0
  and prev_req = ref 0
  and prev_failed = ref 0 in
  Array.iter
    (fun (t, ab, rb, _pending, fl) ->
      if t > !prev_t && !prev_t >= steady_start && t <= steady_end then begin
        let dt = t -. !prev_t in
        alloc_area := !alloc_area +. (float_of_int !prev_alloc *. dt);
        req_area := !req_area +. (float_of_int !prev_req *. dt);
        healthy_area :=
          !healthy_area +. (float_of_int (n_nodes - !prev_failed) *. dt)
      end;
      if t >= steady_start && t <= steady_end then
        Sim.Stats.Hist.add hist (float_of_int rb /. float_of_int n_nodes);
      if t <= steady_end then begin
        prev_t := Float.max t steady_start;
        prev_alloc := ab;
        prev_req := rb;
        prev_failed := fl
      end)
    samples;
  let duration = steady_end -. steady_start in
  let avg_utilization =
    if duration > 0.0 then !req_area /. (float_of_int n_nodes *. duration)
    else 0.0
  in
  let alloc_utilization =
    if duration > 0.0 then !alloc_area /. (float_of_int n_nodes *. duration)
    else 0.0
  in
  let healthy_fraction =
    if duration > 0.0 then !healthy_area /. (float_of_int n_nodes *. duration)
    else 1.0
  in
  let util_vs_healthy =
    if !healthy_area > 0.0 then !req_area /. !healthy_area else 0.0
  in
  let finished = sim.finished in
  let makespan =
    List.fold_left (fun acc r -> Float.max acc r.Metrics.end_time) 0.0 finished
  in
  let tat_all, n_all = Metrics.mean_turnaround finished ~large_only:false in
  let tat_large, n_large = Metrics.mean_turnaround finished ~large_only:true in
  let metrics =
    {
      Metrics.trace_name = w.name;
      sched_name = cfg.allocator.name;
      scenario_name = Trace.Scenario.name cfg.scenario;
      cluster_nodes = n_nodes;
      num_jobs = n_all;
      rejected = sim.acc.rejected;
      stuck_pending = Hashtbl.length sim.pending;
      avg_utilization;
      alloc_utilization;
      inst_hist = Sim.Stats.Hist.counts hist;
      makespan;
      avg_turnaround_all = tat_all;
      avg_turnaround_large = tat_large;
      num_large = n_large;
      sched_time_total = sim.acc.sched_clock;
      sched_time_per_job =
        (if n_all > 0 then sim.acc.sched_clock /. float_of_int n_all else 0.0);
      steady_start;
      steady_end;
      fault_events = sim.acc.fault_events;
      interrupted = sim.acc.interrupted;
      requeued = sim.acc.requeued;
      abandoned = sim.acc.abandoned;
      lost_node_time = sim.acc.lost_node_time;
      shrunk = sim.acc.shrunk;
      grown = sim.acc.grown;
      healthy_fraction;
      util_vs_healthy;
      series =
        Array.map
          (fun (t, _, rb, _, _) -> (t, float_of_int rb /. float_of_int n_nodes))
          samples;
    }
  in
  (metrics, finished)

type t = sim

let run_detailed cfg w = finish (start cfg w)
let run cfg w = fst (run_detailed cfg w)

(* ---- checkpoint snapshots ------------------------------------------ *)

let resolve ?sink ?prof ?(jobs = [||]) p =
  match
    ( Allocator.by_name p.scheme,
      Trace.Scenario.of_name p.scenario,
      Fattree.Topology.of_radix p.radix )
  with
  | Error m, _, _ | _, Error m, _ -> Error m
  | exception Invalid_argument m -> Error m
  | Ok allocator, Ok scenario, _ ->
      if p.system_nodes < 0 then Error "system_nodes must be non-negative"
      else
        Ok
          ( Config.make ~scenario ~scenario_seed:p.scenario_seed
              ~backfill_window:p.backfill_window ~backfill:p.backfill
              ~resilience:p.resilience ?sink ?prof ~radix:p.radix allocator,
            Trace.Workload.create ~name:p.trace_name
              ~system_nodes:p.system_nodes jobs )

let params sim =
  let cfg = sim.cfg in
  {
    scheme = cfg.allocator.Allocator.name;
    radix = cfg.radix;
    scenario = Trace.Scenario.name cfg.scenario;
    scenario_seed = cfg.scenario_seed;
    backfill_window = cfg.backfill_window;
    backfill = cfg.backfill;
    resilience = cfg.resilience;
    trace_name = sim.workload.Trace.Workload.name;
    system_nodes = sim.workload.Trace.Workload.system_nodes;
  }

module Snapshot = struct
  type nonrec event = { ev_time : float; ev_seq : int; ev : event }

  type running_job = {
    rs_alloc : Alloc.t;
    rs_attempt : int;
    rs_epoch : int;  (** 0 unless the attempt was resized in place. *)
    rs_start : float;
    rs_end : float;
    rs_est_end : float;
  }

  type finished_job = { fs_job : int; fs_start : float; fs_end : float }

  type t = {
    params : params;  (** Sink and profiling registry excluded. *)
    jobs : Trace.Job.t array;
    faults : Trace.Faults.event array;
    (* engine *)
    clock : float;
    steps : int;
    next_seq : int;
    events : event array;  (** Pending events in [seq] order. *)
    (* scheduler state *)
    queue : (int * int) array;  (** [(id, stamp)], queue front first. *)
    pending_live : int array;  (** Ids in the pending table, ascending. *)
    pending_gens : (int * int) array;  (** [(id, stamp)], ascending id. *)
    running : running_job array;  (** Ascending job id. *)
    nofit : (int * float) array;  (** Memoized no-fit classes, ascending. *)
    nofit_release_gen : int;
    kills : (int * int) array;  (** [(id, kills)], ascending id. *)
    reserved : (int * float) option;
    acc : Accumulators.t;  (** A copy, never the live record. *)
    samples : (float * int * int * int * int) array;  (** Chronological. *)
    finished : finished_job array;  (** Completion order. *)
    counters : State.counters;
  }
end

(* The table's bindings in ascending key order.  Only [Hashtbl.replace]
   writes the tables this reads, so each key has one binding. *)
let sorted_pairs tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
  |> Sim.Intsort.of_list
  |> Array.map (fun k -> (k, Hashtbl.find tbl k))

let snapshot sim : Snapshot.t =
  if sim.pass_scheduled then
    invalid_arg
      "Simulator.snapshot: a scheduling pass is in flight; snapshot only \
       after run_until";
  let events =
    Sim.Engine.pending_events sim.engine
    |> List.map (fun (ev_time, ev_seq, ev) -> { Snapshot.ev_time; ev_seq; ev })
    |> Array.of_list
  in
  let running =
    Hashtbl.fold
      (fun _ r acc ->
        {
          Snapshot.rs_alloc = r.r_alloc;
          rs_attempt = r.r_attempt;
          rs_epoch = r.r_epoch;
          rs_start = r.r_start;
          rs_end = r.r_end;
          rs_est_end = r.r_est_end;
        }
        :: acc)
      sim.running []
    |> List.sort (fun (a : Snapshot.running_job) b ->
           Int.compare a.rs_alloc.job b.rs_alloc.job)
    |> Array.of_list
  in
  let finished =
    List.rev_map
      (fun (pj : Metrics.per_job) ->
        {
          Snapshot.fs_job = pj.job.id;
          fs_start = pj.start_time;
          fs_end = pj.end_time;
        })
      sim.finished
    |> Array.of_list
  in
  {
    Snapshot.params = params sim;
    jobs =
      (match sim.dyn_jobs with
      | [] -> sim.workload.Trace.Workload.jobs
      | dyn ->
          Array.append sim.workload.Trace.Workload.jobs
            (Array.of_list (List.rev dyn)));
    faults = fault_log sim;
    clock = Sim.Engine.now sim.engine;
    steps = Sim.Engine.steps sim.engine;
    next_seq = Sim.Engine.next_seq sim.engine;
    events;
    queue =
      (let acc = ref [] in
       Queue.iter (fun e -> acc := e :: !acc) sim.pending_ids;
       Array.of_list (List.rev !acc));
    pending_live =
      Sim.Intsort.of_list (Hashtbl.fold (fun id _ acc -> id :: acc) sim.pending []);
    pending_gens = sorted_pairs sim.pending_gen;
    running;
    nofit =
      (Hashtbl.fold (fun k () acc -> k :: acc) sim.nofit []
      |> List.sort compare |> Array.of_list);
    nofit_release_gen = sim.nofit_release_gen;
    kills = sorted_pairs sim.kills;
    reserved = sim.reserved;
    acc = Accumulators.copy sim.acc;
    samples = Array.of_list (List.rev sim.samples);
    finished;
    counters = State.counters sim.st;
  }

exception Restore_error of string

let restore_fail fmt =
  Printf.ksprintf (fun m -> raise (Restore_error m)) fmt

let of_snapshot ?(sink = Obs.Sink.null) ?prof ?net (s : Snapshot.t) =
  try
    let cfg, w =
      match resolve ~sink ?prof ~jobs:s.jobs s.params with
      | Ok r -> r
      | Error m -> restore_fail "%s" m
    in
    let cfg =
      (* [of_ordered], not [scripted]: the array's positions are the
         [Fault] events' indices, and a daemon-injected event may sit
         after a static event it precedes in time — re-sorting would
         silently retarget every pending fault event. *)
      {
        cfg with
        faults = Trace.Faults.of_ordered (Array.to_list s.faults);
        net;
      }
    in
    let sim =
      create cfg w
        ~engine:
          (Sim.Engine.restore ~priority:event_priority ~clock:s.clock
             ~steps:s.steps ~next_seq:s.next_seq)
        ~acc:(Accumulators.copy s.acc)
    in
    let find_job id =
      match Hashtbl.find_opt sim.jobs_by_id id with
      | Some j -> j
      | None -> restore_fail "checkpoint references unknown job id %d" id
    in
    (* Rebuild the cluster state by replaying the executed fault prefix
       (all events at or before the checkpoint clock, in trace order)
       and then re-claiming the running allocations.  Bandwidth demands
       are dyadic fractions, so the cable arithmetic is exact, and live
       faults never intersect running allocations (intersecting jobs
       were killed at the fault instant), so the rebuilt summaries are
       bit-identical to the uninterrupted run's. *)
    (* Stable time order, not array order: injected events live past the
       static suffix but may precede it in time, and a revert must never
       run before its matching apply (repairing a healthy resource
       raises).  For a purely static trace the array is already
       time-sorted, so the stable sort is the identity. *)
    Array.to_list s.faults
    |> List.filter (fun (e : Trace.Faults.event) -> e.time <= s.clock)
    |> List.stable_sort (fun (a : Trace.Faults.event) b ->
           compare a.time b.time)
    |> List.iter (fun (e : Trace.Faults.event) ->
           match e.kind with
           | Trace.Faults.Fail -> Trace.Faults.apply sim.st e.target
           | Trace.Faults.Repair -> Trace.Faults.revert sim.st e.target);
    (* Telemetry state is not checkpointed: it is a pure function of the
       running set, so it is rebuilt here by re-routing each running
       allocation at the restore clock.  No events are emitted — this is
       reconstruction, not replay — so post-restore traces stay
       byte-identical to the uninterrupted run's suffix. *)
    Array.iter
      (fun (r : Snapshot.running_job) ->
        let alloc = r.rs_alloc in
        let j = find_job alloc.job in
        (match State.claim_exn ~validate:false sim.st alloc with
        | () -> ()
        | exception e ->
            restore_fail "checkpoint is inconsistent: re-claiming job %d: %s"
              alloc.job (Printexc.to_string e));
        Option.iter
          (fun nt -> ignore (Routing.Telemetry.add_job nt ~now:s.clock alloc))
          sim.net;
        Hashtbl.replace sim.running alloc.job
          {
            r_job = j;
            r_alloc = alloc;
            r_start = r.rs_start;
            r_end = r.rs_end;
            r_est_end = r.rs_est_end;
            r_attempt = r.rs_attempt;
            r_epoch = r.rs_epoch;
          })
      s.running;
    (* Overwrite the op tallies so generations (and hence the no-fit
       memo guard and the end-of-run profile counters) match the
       uninterrupted run exactly. *)
    State.restore_counters sim.st s.counters;
    (* The memo stamp may lag the state's release generation (the memo
       resets lazily, on its next consult) — but it can never be ahead
       of it. *)
    if s.nofit_release_gen > State.release_generation sim.st then
      restore_fail
        "checkpoint is inconsistent: no-fit generation %d ahead of restored \
         state %d"
        s.nofit_release_gen
        (State.release_generation sim.st);
    sim.nofit_release_gen <- s.nofit_release_gen;
    sim.samples <- List.rev (Array.to_list s.samples);
    sim.finished <-
      Array.fold_left
        (fun acc (f : Snapshot.finished_job) ->
          {
            Metrics.job = find_job f.fs_job;
            start_time = f.fs_start;
            end_time = f.fs_end;
          }
          :: acc)
        [] s.finished;
    sim.finished_count <- Array.length s.finished;
    sim.reserved <- s.reserved;
    Array.iter (fun (id, g) -> Queue.add (id, g) sim.pending_ids) s.queue;
    Array.iter
      (fun id -> Hashtbl.replace sim.pending id (find_job id))
      s.pending_live;
    Array.iter
      (fun (id, g) -> Hashtbl.replace sim.pending_gen id g)
      s.pending_gens;
    Array.iter (fun key -> Hashtbl.replace sim.nofit key ()) s.nofit;
    Array.iter (fun (id, k) -> Hashtbl.replace sim.kills id k) s.kills;
    (* Re-queue the pending events with their exact sequence numbers, so
       same-instant tie-breaking (and therefore every float summation
       order downstream) is unchanged. *)
    Array.iter
      (fun (e : Snapshot.event) ->
        (match e.ev with
        | Arrive id -> ignore (find_job id)
        | Fault i when i < 0 || i >= Array.length s.faults ->
            restore_fail "checkpoint references fault event %d of %d" i
              (Array.length s.faults)
        | Pass -> restore_fail "checkpoint holds a scheduling pass"
        | Complete _ | Fault _ -> ());
        Sim.Engine.schedule_restored sim.engine ~time:e.ev_time ~seq:e.ev_seq
          e.ev)
      s.events;
    open_run sim;
    Ok sim
  with
  | Restore_error m -> Error m
  | Invalid_argument m -> Error m
