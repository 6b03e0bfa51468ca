(* Reproduction harness for every table and figure of the paper's
   evaluation (Smith & Lowenthal, HPDC'21), plus a Bechamel micro-suite
   for allocator latency.

   Usage:   dune exec bench/main.exe [-- table1 fig6 table2 fig7 fig8 table3 micro json primitives ablation]
   Default (no args): everything, in paper order.
   REPRO_FULL=1 switches to paper-scale traces (much slower).

   See DESIGN.md section 5 for the experiment index and EXPERIMENTS.md
   for recorded paper-vs-measured results. *)

let full = match Sys.getenv_opt "REPRO_FULL" with Some "1" -> true | _ -> false

(* BENCH_SCALE=N overrides the large radix of the json target's "scale"
   section (default: the preset scale tier's radix, 48).  Must be even
   and >= 8; anything else falls back to the default. *)
let scale_radix =
  match Sys.getenv_opt "BENCH_SCALE" with
  | Some s -> (
      match int_of_string_opt s with
      | Some r when r >= 8 && r mod 2 = 0 -> r
      | _ -> Trace.Presets.scale_radix)
  | None -> Trace.Presets.scale_radix

let section title =
  Format.printf "@.=== %s ===@.@." title

(* ------------------------------------------------------------------ *)
(* Shared simulation cache: fig6, table2 and table3 reuse runs.        *)
(* ------------------------------------------------------------------ *)

(* BENCH_JOBS=N shards each target's simulations over N domains via
   [Sched.Sweep] before the serial print loop (0: the machine's
   recommended count).  Default is 1 — fully serial — because parallel
   cells contend for memory bandwidth and would inflate the wall-clock
   [sched_time_*] numbers some targets report. *)
let bench_jobs =
  match Sys.getenv_opt "BENCH_JOBS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt s with
      | Some 0 -> Par.Pool.default_jobs ()
      | Some n when n > 0 -> n
      | _ -> 1)

let cache : (string * string * string, Sched.Metrics.t) Hashtbl.t =
  Hashtbl.create 64

let sim_key (entry : Trace.Presets.entry) (alloc : Sched.Allocator.t) scenario =
  ( Printf.sprintf "%s#%d" entry.workload.Trace.Workload.name
      (Trace.Workload.num_jobs entry.workload),
    alloc.Sched.Allocator.name,
    Trace.Scenario.name scenario )

let run_sim ?(scenario = Trace.Scenario.No_speedup) (entry : Trace.Presets.entry)
    (alloc : Sched.Allocator.t) =
  let key = sim_key entry alloc scenario in
  match Hashtbl.find_opt cache key with
  | Some m -> m
  | None ->
      let cfg =
        Sched.Simulator.Config.make ~scenario ~radix:entry.cluster_radix alloc
      in
      let m = Sched.Simulator.run cfg entry.workload in
      Hashtbl.replace cache key m;
      m

(* Fill the cache for a target's (entry, alloc, scenario) triples in
   parallel; the target's serial loop then prints pure cache hits.  The
   sweep cells replicate [run_sim]'s config exactly, and results merge
   in submission order, so the cached metrics are byte-identical to the
   serial path whatever BENCH_JOBS is. *)
let prewarm triples =
  if bench_jobs > 1 then begin
    let seen = Hashtbl.create 32 in
    let missing =
      List.filter
        (fun (e, a, scen) ->
          let key = sim_key e a scen in
          let fresh =
            (not (Hashtbl.mem cache key)) && not (Hashtbl.mem seen key)
          in
          if fresh then Hashtbl.replace seen key ();
          fresh)
        triples
    in
    let cells =
      List.map
        (fun ((e : Trace.Presets.entry), a, scen) ->
          Sched.Sweep.cell
            (Sched.Simulator.Config.make ~scenario:scen
               ~radix:e.cluster_radix a)
            e.workload)
        missing
      |> Array.of_list
    in
    let results = Sched.Sweep.run ~jobs:bench_jobs cells in
    List.iteri
      (fun i (e, a, scen) ->
        Hashtbl.replace cache (sim_key e a scen)
          results.(i).Sched.Sweep.metrics)
      missing
  end

let no_speedup = Trace.Scenario.No_speedup

(* ------------------------------------------------------------------ *)
(* Table 1: characteristics of the job queue traces.                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Characteristics of job queue traces";
  Format.printf "%a@." Trace.Workload.pp_summary_header ();
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "%a@." Trace.Workload.pp_summary
        (Trace.Workload.summarize e.workload))
    (Trace.Presets.all ~full);
  if not full then
    Format.printf
      "@.(scaled-down job counts and runtime tails; REPRO_FULL=1 for Table 1 scale)@."

(* ------------------------------------------------------------------ *)
(* Figure 6: average system utilization, 5 schemes x 9 traces.         *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Figure 6: Average system utilization (%) per scheme and trace";
  let schemes = Sched.Allocator.all in
  prewarm
    (List.concat_map
       (fun e -> List.map (fun a -> (e, a, no_speedup)) schemes)
       (Trace.Presets.figure6_order ~full));
  Format.printf "%-10s" "Trace";
  List.iter (fun (a : Sched.Allocator.t) -> Format.printf " %9s" a.name) schemes;
  Format.printf "@.";
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "%-10s" e.workload.name;
      List.iter
        (fun a ->
          let m = run_sim e a in
          Format.printf " %8.1f%%" (100.0 *. m.avg_utilization))
        schemes;
      Format.printf "@.")
    (Trace.Presets.figure6_order ~full);
  Format.printf
    "@.(expect: Baseline 97-100; LC+S >= Jigsaw; Jigsaw ~95-96; LaaS ~90-93; TA ~85-88;@.";
  Format.printf " Atlas worst for all schemes due to whole-machine requests)@."

(* ------------------------------------------------------------------ *)
(* Table 2: frequency of instantaneous utilization ranges (Thunder).   *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: Instantaneous utilization frequency on Thunder";
  let e = Trace.Presets.thunder ~full in
  prewarm
    (List.map (fun a -> (e, a, no_speedup)) Sched.Allocator.isolating);
  Format.printf "%-8s %8s %8s %8s %8s %8s %8s@." "Approach" ">=98" "95-97"
    "90-95" "80-90" "60-80" "<=60";
  List.iter
    (fun (a : Sched.Allocator.t) ->
      let m = run_sim e a in
      (* inst_hist is lowest-bucket-first; the paper prints high to low. *)
      let h = m.inst_hist in
      Format.printf "%-8s %8d %8d %8d %8d %8d %8d@." a.name h.(5) h.(4) h.(3)
        h.(2) h.(1) h.(0))
    Sched.Allocator.isolating

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: scenario sweeps.                                   *)
(* ------------------------------------------------------------------ *)

let scenario_schemes =
  [
    Sched.Allocator.ta;
    Sched.Allocator.laas;
    Sched.Allocator.jigsaw;
    Sched.Allocator.lcs ();
  ]

(* Scenario sweeps rerun every (trace, scheme, scenario) triple; to keep
   the default suite in the minutes range they use truncated traces.
   Normalization is against Baseline on the same truncated trace, so the
   comparison stays internally consistent. *)
let sweep_entry ?(cap = 2_500) (e : Trace.Presets.entry) =
  if full then e
  else { e with workload = Trace.Workload.truncate e.workload cap }

(* Everything a scenario-sweep figure touches: Baseline once per entry
   plus every (scheme, scenario) pair. *)
let scenario_triples entries =
  List.concat_map
    (fun e ->
      (e, Sched.Allocator.baseline, no_speedup)
      :: List.concat_map
           (fun scen -> List.map (fun a -> (e, a, scen)) scenario_schemes)
           Trace.Scenario.all)
    entries

let fig7 () =
  section
    "Figure 7: Average job turnaround time normalized to Baseline (all jobs / jobs > 100 nodes)";
  prewarm
    (scenario_triples
       [ sweep_entry (Trace.Presets.aug_cab ~full);
         sweep_entry (Trace.Presets.oct_cab ~full) ]);
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "--- %s ---@." e.workload.name;
      let base = run_sim e Sched.Allocator.baseline in
      Format.printf "%-8s" "Scenario";
      List.iter
        (fun (a : Sched.Allocator.t) -> Format.printf " %15s" a.name)
        scenario_schemes;
      Format.printf "@.";
      List.iter
        (fun scen ->
          Format.printf "%-8s" (Trace.Scenario.name scen);
          List.iter
            (fun a ->
              let m = run_sim ~scenario:scen e a in
              let norm_all = m.avg_turnaround_all /. base.avg_turnaround_all in
              let norm_lg =
                if base.avg_turnaround_large > 0.0 then
                  m.avg_turnaround_large /. base.avg_turnaround_large
                else 0.0
              in
              Format.printf "     %4.2f /%4.2f" norm_all norm_lg)
            scenario_schemes;
          Format.printf "@.")
        Trace.Scenario.all)
    [ sweep_entry (Trace.Presets.aug_cab ~full);
      sweep_entry (Trace.Presets.oct_cab ~full) ];
  Format.printf
    "@.(expect: Jigsaw < 1.0 for Aug-Cab in speed-up scenarios; TA worst; LaaS between)@."

let fig8 () =
  section "Figure 8: Makespan normalized to Baseline";
  prewarm
    (scenario_triples
       [ sweep_entry ~cap:2_000 (Trace.Presets.thunder ~full);
         sweep_entry ~cap:1_500 (Trace.Presets.atlas ~full) ]);
  List.iter
    (fun (e : Trace.Presets.entry) ->
      Format.printf "--- %s ---@." e.workload.name;
      let base = run_sim e Sched.Allocator.baseline in
      Format.printf "%-8s" "Scenario";
      List.iter
        (fun (a : Sched.Allocator.t) -> Format.printf " %8s" a.name)
        scenario_schemes;
      Format.printf "@.";
      List.iter
        (fun scen ->
          Format.printf "%-8s" (Trace.Scenario.name scen);
          List.iter
            (fun a ->
              let m = run_sim ~scenario:scen e a in
              Format.printf " %8.3f" (m.makespan /. base.makespan))
            scenario_schemes;
          Format.printf "@.")
        Trace.Scenario.all)
    [ sweep_entry ~cap:2_000 (Trace.Presets.thunder ~full);
      sweep_entry ~cap:1_500 (Trace.Presets.atlas ~full) ];
  Format.printf
    "@.(expect: Jigsaw <= ~1.06 with no speed-ups and <= Baseline with them, beating LaaS and TA)@."

(* ------------------------------------------------------------------ *)
(* Table 3: average scheduling time per job.                           *)
(* ------------------------------------------------------------------ *)

let table3 () =
  section "Table 3: Average scheduling time per job (seconds)";
  let entries =
    [
      Trace.Presets.synth_16 ~full;
      Trace.Presets.sep_cab ~full;
      Trace.Presets.thunder ~full;
      Trace.Presets.synth_28 ~full;
    ]
  in
  prewarm
    (List.concat_map
       (fun e -> List.map (fun a -> (e, a, no_speedup)) scenario_schemes)
       entries);
  Format.printf "%-8s" "";
  List.iter
    (fun (e : Trace.Presets.entry) -> Format.printf " %10s" e.workload.name)
    entries;
  Format.printf "@.";
  List.iter
    (fun (a : Sched.Allocator.t) ->
      Format.printf "%-8s" a.name;
      List.iter
        (fun e ->
          let m = run_sim e a in
          Format.printf " %10.5f" m.sched_time_per_job)
        entries;
      Format.printf "@.")
    scenario_schemes;
  Format.printf
    "@.(expect: TA/LaaS/Jigsaw within the same order of magnitude, milliseconds;@.";
  Format.printf " LC+S notably slower, growing with cluster size)@.";
  (* The paper's LC+S/Jigsaw ratio is ~10-25x; a ratio outside that
     band is printed as a named deviation, never dropped. *)
  let ratios =
    List.map
      (fun e ->
        let t (a : Sched.Allocator.t) = (run_sim e a).sched_time_per_job in
        t (Sched.Allocator.lcs ()) /. t Sched.Allocator.jigsaw)
      entries
  in
  let lo = List.fold_left Float.min Float.infinity ratios
  and hi = List.fold_left Float.max Float.neg_infinity ratios in
  Format.printf "@.LC+S / Jigsaw scheduling time: %.1f-%.1fx (paper ~10-25x)@."
    lo hi;
  if lo < 10.0 || hi > 25.0 then
    Format.printf
      "Deviation D3: the LC+S/Jigsaw ratio leaves the paper's 10-25x band@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one allocation on a half-loaded cluster. *)
(* ------------------------------------------------------------------ *)

let load_cluster ~radix ~seed ~target =
  (* Fill a cluster to roughly [target] utilization with Jigsaw jobs. *)
  let topo = Fattree.Topology.of_radix radix in
  let st = Fattree.State.create topo in
  let prng = Sim.Prng.create ~seed in
  let continue = ref true in
  let id = ref 0 in
  while !continue && Fattree.State.node_utilization st < target do
    let size =
      max 1
        (min
           (Fattree.Topology.num_nodes topo / 8)
           (int_of_float (Sim.Prng.exponential prng ~mean:16.0)))
    in
    (match Jigsaw_core.Jigsaw.probe st ~job:!id ~size with
    | Jigsaw_core.Partition.Found p ->
        Fattree.State.claim_exn st
          (Jigsaw_core.Partition.to_alloc topo p ~bw:1.0)
    | Infeasible | Exhausted -> continue := false);
    incr id
  done;
  st

(* ------------------------------------------------------------------ *)
(* Primitives: Fattree.State claim/release, create and copy_into,      *)
(* Partition.to_alloc, Jigsaw and LC+S probe hits, one probe miss.      *)
(* ------------------------------------------------------------------ *)

let primitive_samples = 7

(* Median, fastest and slowest of [primitive_samples] timings of [iters]
   calls of [f], in ns per call, after a short warm-up. *)
let sample_ns ~iters f =
  for _ = 1 to max 1 (iters / 10) do
    f ()
  done;
  let ts =
    Array.init primitive_samples (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to iters do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters)
  in
  Array.sort Float.compare ts;
  (ts.(primitive_samples / 2), ts.(0), ts.(primitive_samples - 1))

(* Words allocated per call of [f] on the minor heap, and directly on
   the major heap (blocks over [Max_young_wosize], 256 words, such as a
   large partition's id arrays), over [calls] calls after as many
   warm-up calls (so a cycling row's one-time allocations, such as a
   state's first summary record at each demand, fall outside the
   count): deterministic counts for a given build, where the timings
   are not. *)
let words_per_call ~calls f =
  for _ = 1 to calls do
    f ()
  done;
  (* [Gc.minor_words] counts the live minor heap; [Gc.counters]'s minor
     figure lags it, but its major one, less the promoted words, is the
     direct allocations. *)
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for _ = 1 to calls do
    f ()
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per w = w /. float_of_int calls in
  (per (minor1 -. minor0), per (major1 -. major0 -. (promoted1 -. promoted0)))

type primitive = {
  p_op : string;
  p_input : string;
  p_radix : int;
  p_mean_nodes : int; (* nodes per allocation; 0 for whole-state ops *)
  p_ns : float * float * float; (* median, min, max *)
  p_words : (float * float) option;
      (* minor and direct major words per call, where counted *)
}

(* The daemon's checkpoint layer: [Checkpoint.encode] of a daemon-shaped
   snapshot, 1200 Thunder-like jobs submitted at time 0 through
   [Svc.Core] on the radix-18 machine (most of them queue, as in
   perfbench's svc-play), through a fresh memo (every row encoded) and
   through the memo of the previous checkpoint of the same state (two
   snapshots taken in turn, so running rows are matched by id, not by
   identity). *)
let checkpoint_encode_rows () =
  let radix = 18 and n_jobs = 1200 in
  let params : Svc.Core.params =
    { scheme = "Jigsaw"; radix; scenario = Trace.Scenario.name Trace.Scenario.No_speedup;
      scenario_seed = 1; backfill_window = 50; backfill = true;
      resilience = Sched.Simulator.no_resilience; trace_name = "Thunder";
      system_nodes = radix * radix * radix / 4 }
  in
  let core = Result.get_ok (Svc.Core.create params) in
  let w = Trace.Synthetic.thunder_like ~runtime_cap:40000.0 ~n_jobs ~seed:3301 () in
  Array.iteri
    (fun seq (j : Trace.Job.t) ->
      let j =
        Trace.Job.v ~bw_class:j.bw_class ~est_runtime:j.est_runtime ~id:j.id ~size:j.size
          ~runtime:j.runtime ()
      in
      ignore (Svc.Core.apply core ~seq ~rid:None ~stamp:0.0 (Svc.Core.Submit j)))
    w.jobs;
  let meta = Svc.Core.checkpoint_meta core in
  let snaps = [| Svc.Core.snapshot core; Svc.Core.snapshot core |] in
  let row memo ~iters f =
    { p_op = "checkpoint encode"; p_input = Printf.sprintf "%d-job daemon, %s memo" n_jobs memo;
      p_radix = radix; p_mean_nodes = 0; p_ns = sample_ns ~iters f; p_words = None }
  in
  let warm = Sched.Checkpoint.memo () in
  let k = ref 0 in
  [
    row "cold" ~iters:5 (fun () -> ignore (Sched.Checkpoint.encode ~meta snaps.(0)));
    row "warm" ~iters:20 (fun () ->
        incr k;
        ignore (Sched.Checkpoint.encode ~memo:warm ~meta snaps.(!k land 1)));
  ]

(* The probe layer above the state primitives: one Jigsaw probe that
   finds nothing — a backfill miss — on a radix-18 machine loaded until
   a request first misses or 95% of it is busy (93% at this seed), at
   the smallest request size that misses there (every smaller one
   fits), so both of Algorithm 1's passes try every shape and reject
   it. *)
let probe_miss_row () =
  let radix = 18 in
  let st = load_cluster ~radix ~seed:77 ~target:0.95 in
  let probe size = Jigsaw_core.Jigsaw.probe st ~job:0 ~size in
  let free = Fattree.State.total_free_nodes st in
  let size = ref 1 in
  while !size < free && probe !size <> Jigsaw_core.Partition.Infeasible do
    incr size
  done;
  {
    p_op = "Jigsaw probe miss";
    p_input =
      Printf.sprintf "%d%%-loaded"
        (int_of_float (100.0 *. Fattree.State.node_utilization st));
    p_radix = radix;
    p_mean_nodes = !size;
    p_ns = sample_ns ~iters:5_000 (fun () -> ignore (probe !size));
    p_words = None;
  }

(* The live-state layer under the allocator probes: the mean cost of a
   [claim_exn ~validate:false] + [release] pair over Jigsaw partitions of
   a trace's first 50 jobs (each placed on an empty machine, as
   [Partition.to_alloc] hands them to the simulator), cycling through
   them on one state; the mean cost of [Partition.to_alloc] over the
   same Synth-16@48 partitions, of the Jigsaw probe that finds each of
   them on the empty machine plus its [to_alloc], and of the LC+S probe
   of the same job at its bandwidth class there plus its [to_alloc]
   (the three with the words they allocate per call); [State.create];
   and [copy_into] from an
   ~80%-loaded state, fault-free and with one failed node on both
   sides (the fault overlay's blit). *)
let primitive_rows () =
  (* Jigsaw partitions of a trace's first 50 jobs, each found on an
     empty machine. *)
  let partitions (e : Trace.Presets.entry) =
    let topo = Fattree.Topology.of_radix e.cluster_radix in
    let st = Fattree.State.create topo in
    let jobs = e.workload.Trace.Workload.jobs in
    let parts =
      Array.sub jobs 0 (min 50 (Array.length jobs))
      |> Array.to_list
      |> List.filter_map (fun (j : Trace.Job.t) ->
             match Jigsaw_core.Jigsaw.probe st ~job:j.id ~size:j.size with
             | Jigsaw_core.Partition.Found p -> Some p
             | Infeasible | Exhausted -> None)
      |> Array.of_list
    in
    (topo, parts)
  in
  (* One [op] row: the mean cost of [f] over each of [xs] in turn; with
     [words], also the words it allocates per call over whole cycles. *)
  let cycling ?(words = false) op (e : Trace.Presets.entry) ~mean_nodes
      ~iters f xs =
    let k = ref 0 in
    let next () =
      let x = xs.(!k) in
      k := (!k + 1) mod Array.length xs;
      f x
    in
    {
      p_op = op;
      p_input = e.workload.Trace.Workload.name ^ " Jigsaw";
      p_radix = e.cluster_radix;
      p_mean_nodes = mean_nodes;
      p_ns = sample_ns ~iters next;
      p_words =
        (if words then
           Some (words_per_call ~calls:(4 * Array.length xs) next)
         else None);
    }
  in
  let flatten topo p = Jigsaw_core.Partition.to_alloc topo p ~bw:1.0 in
  let claim_release e (topo, parts) ~iters =
    let allocs = Array.map (flatten topo) parts in
    let nodes =
      Array.fold_left (fun s (a : Fattree.Alloc.t) -> s + Array.length a.nodes) 0 allocs
    in
    let st = Fattree.State.create topo in
    cycling "claim+release" e ~mean_nodes:(nodes / max 1 (Array.length allocs)) ~iters
      (fun a ->
        Fattree.State.claim_exn ~validate:false st a;
        Fattree.State.release st a)
      allocs
  in
  let to_alloc e (topo, parts) ~mean_nodes ~iters =
    cycling ~words:true "to_alloc" e ~mean_nodes ~iters
      (fun p -> ignore (flatten topo p))
      parts
  in
  (* The probe that found each partition, run again on the empty
     machine it was found on, and the flattening the simulator applies
     to what it returns. *)
  let probe_hit e (topo, parts) ~mean_nodes ~iters =
    let st = Fattree.State.create topo in
    cycling ~words:true "Jigsaw probe hit" e ~mean_nodes ~iters
      (fun (p : Jigsaw_core.Partition.t) ->
        match Jigsaw_core.Jigsaw.probe st ~job:p.job ~size:p.size with
        | Jigsaw_core.Partition.Found q -> ignore (flatten topo q)
        | Infeasible | Exhausted -> failwith "probe hit: no partition")
      parts
  in
  (* The LC+S probe of each of those jobs at its bandwidth class, on one
     empty machine whose per-demand records stay warm across calls,
     as a scheduler's live state does. *)
  let lcs_probe_hit (e : Trace.Presets.entry) (topo, parts) ~mean_nodes ~iters =
    let st = Fattree.State.create topo in
    let jobs = e.workload.Trace.Workload.jobs in
    let demand (p : Jigsaw_core.Partition.t) =
      (Option.get (Array.find_opt (fun (j : Trace.Job.t) -> j.id = p.job) jobs))
        .bw_class
    in
    cycling ~words:true "LC+S probe hit" e ~mean_nodes ~iters
      (fun ((p : Jigsaw_core.Partition.t), demand) ->
        match
          Jigsaw_core.Least_constrained.probe ~demand st ~job:p.job ~size:p.size
        with
        | Jigsaw_core.Partition.Found q ->
            ignore (Jigsaw_core.Partition.to_alloc topo q ~bw:demand)
        | Infeasible | Exhausted -> failwith "LC+S probe hit: no partition")
      (Array.map (fun p -> (p, demand p)) parts)
  in
  let synth48 =
    Option.get (Trace.Presets.by_name ~full:false "Synth-16@48")
  in
  let thunder = Trace.Presets.thunder ~full:false in
  let synth48_parts = partitions synth48 in
  let synth48_row = claim_release synth48 synth48_parts ~iters:2_000 in
  let whole op ~iters f =
    { p_op = op; p_input = "radix-48"; p_radix = scale_radix; p_mean_nodes = 0;
      p_ns = sample_ns ~iters f; p_words = None }
  in
  let topo = Fattree.Topology.of_radix scale_radix in
  let loaded = load_cluster ~radix:scale_radix ~seed:77 ~target:0.8 in
  let dst = Fattree.State.create topo in
  let rows =
    [
      synth48_row;
      to_alloc synth48 synth48_parts ~mean_nodes:synth48_row.p_mean_nodes ~iters:5_000;
      probe_hit synth48 synth48_parts ~mean_nodes:synth48_row.p_mean_nodes ~iters:2_000;
      lcs_probe_hit synth48 synth48_parts ~mean_nodes:synth48_row.p_mean_nodes
        ~iters:2_000;
      claim_release thunder (partitions thunder) ~iters:20_000;
      whole "create" ~iters:200 (fun () -> ignore (Fattree.State.create topo));
      whole "copy_into" ~iters:500 (fun () ->
          Fattree.State.copy_into ~src:loaded ~dst);
    ]
  in
  Fattree.State.fail_node loaded 0;
  Fattree.State.fail_node dst 0;
  rows
  @ [
      whole "copy_into (faulted)" ~iters:500 (fun () ->
          Fattree.State.copy_into ~src:loaded ~dst);
      probe_miss_row ();
    ]
  @ checkpoint_encode_rows ()

let primitives () =
  section
    "Primitives: Fattree.State, Partition.to_alloc, Jigsaw and LC+S probes and the daemon checkpoint (ns per call, median of 7 samples; words allocated per call, minor + major, where counted)";
  List.iter
    (fun r ->
      let med, lo, hi = r.p_ns in
      Format.printf "  %-20s %-28s r%-3d %5d nodes  median %11.0f ns  [%.0f, %.0f]%s@."
        r.p_op r.p_input r.p_radix r.p_mean_nodes med lo hi
        (match r.p_words with
        | Some (minor, major) -> Printf.sprintf "  %.1f + %.1f words" minor major
        | None -> ""))
    (primitive_rows ())

let micro () =
  section "Bechamel micro-benchmarks (radix-24 cluster, ~80% loaded)";
  let open Bechamel in
  let st = load_cluster ~radix:24 ~seed:77 ~target:0.8 in
  (* One group per job class: leaf-scale, pod-scale and machine-scale
     requests hit different search paths (Algorithm 1's two- vs
     three-level branches). *)
  let alloc_group (label, size) =
    let job = Trace.Job.v ~id:999_999 ~size ~runtime:100.0 () in
    Test.make_grouped ~name:(Printf.sprintf "alloc-%s-%d" label size)
      (List.map
         (fun (a : Sched.Allocator.t) ->
           Test.make ~name:a.name
             (Staged.stage (fun () -> ignore (a.probe_sized st job))))
         Sched.Allocator.all)
  in
  (* Routing micro-benches: constructing a full-bandwidth routing for a
     permutation over a partition, and compiling forwarding tables. *)
  let routing_group =
    let topo = Fattree.State.topo st in
    let fresh = Fattree.State.create topo in
    let p =
      match Jigsaw_core.Jigsaw.probe fresh ~job:1 ~size:120 with
      | Jigsaw_core.Partition.Found p -> p
      | Infeasible | Exhausted -> assert false
    in
    let n = Jigsaw_core.Partition.node_count p in
    let perm = Routing.Rearrange.demo_permutation ~n ~shift:(n / 3) in
    Test.make_grouped ~name:"routing-120-nodes"
      [
        Test.make ~name:"rearrange-permutation"
          (Staged.stage (fun () ->
               ignore (Routing.Rearrange.route_permutation topo p ~perm)));
        Test.make ~name:"compile-fwd-tables"
          (Staged.stage (fun () -> ignore (Routing.Fwd.compile topo p)));
      ]
  in
  let groups =
    List.map alloc_group [ ("leaf", 6); ("pod", 40); ("multi-pod", 200) ]
    @ [ routing_group ]
  in
  let benchmark tests =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    List.map (fun i -> Analyze.all ols i raw_results) instances
  in
  List.iter
    (fun group ->
      let results = benchmark group in
      let rows = ref [] in
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun name ols ->
              let ns =
                match Analyze.OLS.estimates ols with
                | Some (t :: _) -> t
                | _ -> Float.nan
              in
              rows := (name, ns) :: !rows)
            tbl)
        results;
      List.iter
        (fun (name, ns) -> Format.printf "%-40s %14.1f ns/run@." name ns)
        (List.sort compare !rows);
      Format.printf "@.")
    groups

(* ------------------------------------------------------------------ *)
(* BENCH_0008.json: machine-readable perf trajectory across PRs.       *)
(* ------------------------------------------------------------------ *)

(* Emits allocator micro-latencies (mean rigid probe_sized on a busy
   radix-24 cluster), a "scale" section repeating the same probes on a radix-48
   cluster (sizes scaled by the pod-size ratio, so each class keeps its
   meaning) plus a multi-pod request on empty radix-24/48 machines,
   per-trace scheduler costs for the Table 3 traces, a per-scheme profile (probe outcome
   counters incl. memo hit rate, state clone/claim tallies, span
   totals) from an instrumented Synth-16 run, and a parallel-sweep
   section (serial vs 1/2/4/8-domain wall-clock over the full
   preset x scheme grid, with a fingerprint cross-check), and a "net"
   section racing every scheme x routing policy with live network
   telemetry (peak/mean channel load, shared channels, interfered
   flows, pigeonhole lower bound) plus the telemetry on/off overhead
   and per-event route/retract span costs, so regressions show up as
   a diff of this file rather than a human re-reading bench output.
   A "molding" section races moldable Jigsaw against rigid on every
   Table 3 trace (with live telemetry, so the interference-free
   headline is re-checked under molding) plus a shrink-vs-kill fault
   recovery comparison.  A "primitives" section times the live-state
   layer under the probes ([State] claim+release, create, copy_into),
   [Partition.to_alloc], a Jigsaw and an LC+S probe hit, one Jigsaw
   miss, and the daemon's checkpoint encoding (see [primitive_rows]).  The scale, net and
   molding sections each carry a built-in regression guard.  Traces
   are truncated in default mode to keep the target in the ~minute
   range; REPRO_FULL=1 uses paper scale.  BENCH_SCALE=N overrides the scale section's large radix. *)

let bench_json_file = "BENCH_0008.json"

let bench_json () =
  section (Printf.sprintf "%s (machine-readable perf trajectory)" bench_json_file);
  let open Obs.Json in
  let str s = Text s and fixed d x = Fixed (d, x) in
  let ratio_of a b = if b > 0.0 then a /. b else 0.0 in
  let radix = 24 and target = 0.8 in
  let st = load_cluster ~radix ~seed:77 ~target in
  let mean_probe_ns ?(iters = 200) st (a : Sched.Allocator.t) size =
    let job = Trace.Job.v ~id:999_999 ~size ~runtime:100.0 () in
    for _ = 1 to 5 do
      ignore (a.probe_sized st job)
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (a.probe_sized st job)
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let classes = [ ("leaf", 6); ("pod", 40); ("multi-pod", 200) ] in
  let micro_rows =
    List.concat_map
      (fun (label, size) ->
        List.map
          (fun (a : Sched.Allocator.t) ->
            Obj
              [ ("allocator", str a.name); ("class", str label); ("size", Int size);
                ("mean_ns", fixed 1 (mean_probe_ns st a size)) ])
          Sched.Allocator.all)
      classes
  in
  (* The scale section: the same probe classes on a radix-48 cluster
     loaded the same way, request sizes multiplied by the pod-size
     ratio ((48/24)^2 = 4) so "pod" still means roughly a quarter pod
     and "multi-pod" still spans pods.  Fewer timing iterations — the
     large machine's probes are individually slower and this section
     tracks scaling trends, not ns-level noise. *)
  let ratio = max 1 (scale_radix * scale_radix / (radix * radix)) in
  (* Each scale row times the probe [scale_samples] times on each
     machine, alternating, and compares the medians: a slow spell on the
     host lands on both sides of the ratio instead of on one row.  The
     row records the spread of the per-pair ratios.

     Regression guard for the scaling cliff: radix 24 to 48 multiplies
     the pod count and the nodes per pod by 2 each, and every allocator's
     per-probe cost grows ~4-6x with it.  A leaf-subset search that stops
     bounding itself by the candidates left shows up as a ratio in the
     hundreds (LC+S on multi-pod requests once hit 246x, and 259x on
     the empty machines while it listed every leaf set of the remainder
     pod before trying the first).  The bound is
     twice the pod-size ratio: 8x at radix 48. *)
  let scale_samples = 5 and scale_bound = 2.0 *. float_of_int ratio in
  let median xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let scale_row (a : Sched.Allocator.t) label ~small ~large =
    let time (st, size, iters) = mean_probe_ns ~iters st a size in
    let pairs =
      List.init scale_samples (fun _ ->
          let s = time small in
          (s, time large))
    in
    let small_ns = median (List.map fst pairs) in
    let large_ns = median (List.map snd pairs) in
    let ratios = List.map (fun (s, l) -> ratio_of l s) pairs in
    if small_ns > 0.0 && large_ns /. small_ns > scale_bound then
      failwith
        (Printf.sprintf
           "scale regression: %s %s probes %.1fx slower at radix %d than at \
            radix %d (medians %.1f vs %.1f ns)"
           a.name label (large_ns /. small_ns) scale_radix radix large_ns
           small_ns);
    let _, size_l, _ = large in
    Obj
      [ ("allocator", str a.name); ("class", str label); ("size_large", Int size_l);
        (Printf.sprintf "mean_ns_r%d" radix, fixed 1 small_ns);
        (Printf.sprintf "mean_ns_r%d" scale_radix, fixed 1 large_ns);
        ("ratio", fixed 2 (ratio_of large_ns small_ns)); ("samples", Int scale_samples);
        ("ratio_min", fixed 2 (List.fold_left Float.min infinity ratios));
        ("ratio_max", fixed 2 (List.fold_left Float.max neg_infinity ratios)) ]
  in
  let scale_rows =
    Format.printf "  loading radix-%d cluster for the scale section...@."
      scale_radix;
    let st_l = load_cluster ~radix:scale_radix ~seed:77 ~target in
    List.concat_map
      (fun (label, size) ->
        List.map
          (fun a ->
            scale_row a label ~small:(st, size, 200)
              ~large:(st_l, size * ratio, 50))
          Sched.Allocator.all)
      classes
    @
    (* The same multi-pod request on empty machines, where every leaf is
       a candidate and a search that lists a pod's leaf sets before
       trying the first pays for all C(m2, l) of them. *)
    let empty r = Fattree.State.create (Fattree.Topology.of_radix r) in
    let st_s = empty radix and st_l = empty scale_radix in
    let size = 200 in
    List.map
      (fun a ->
        scale_row a "empty-multi-pod" ~small:(st_s, size, 200)
          ~large:(st_l, size * ratio, 50))
      Sched.Allocator.all
  in
  let primitive_rows = primitive_rows () in
  let entries =
    [
      Trace.Presets.synth_16 ~full;
      Trace.Presets.sep_cab ~full;
      Trace.Presets.thunder ~full;
      Trace.Presets.synth_28 ~full;
    ]
    |> List.map (sweep_entry ~cap:1_500)
  in
  prewarm
    (List.concat_map
       (fun e ->
         List.map (fun a -> (e, a, no_speedup)) Sched.Allocator.all)
       entries);
  let trace_rows =
    List.concat_map
      (fun (e : Trace.Presets.entry) ->
        List.map
          (fun (a : Sched.Allocator.t) ->
            let m = run_sim e a in
            Obj
              [ ("trace", str e.workload.Trace.Workload.name);
                ("jobs", Int (Trace.Workload.num_jobs e.workload)); ("scheme", str a.name);
                ("sched_time_per_job_s", Float m.sched_time_per_job);
                ("avg_utilization", fixed 6 m.avg_utilization) ])
          Sched.Allocator.all)
      entries
  in
  (* Per-scheme scheduling profile on one representative trace: probe
     outcomes (memo hit rate), state operation tallies (clones, claims)
     and span totals.  A dedicated instrumented run per scheme, outside
     the shared cache, so the timing rows above stay un-instrumented. *)
  let profile_entry = sweep_entry ~cap:1_500 (Trace.Presets.synth_16 ~full) in
  let profile_rows =
    (* Each scheme's cell profiles into its own registry (Obs.Prof is
       single-writer); the coordinator reads them after the pool joins. *)
    let cells =
      List.map
        (fun a ->
          Sched.Sweep.cell ~profile:true
            (Sched.Simulator.Config.make ~radix:profile_entry.cluster_radix a)
            profile_entry.workload)
        Sched.Allocator.all
      |> Array.of_list
    in
    let results = Sched.Sweep.run ~jobs:bench_jobs cells in
    List.mapi
      (fun i (a : Sched.Allocator.t) ->
        let p = Option.get results.(i).Sched.Sweep.prof in
        let c = Obs.Prof.counter p in
        let probes =
          c "probe/fit" + c "probe/infeasible" + c "probe/exhausted"
          + c "probe/memo_hit"
        in
        let memo_rate =
          if probes = 0 then 0.0
          else float_of_int (c "probe/memo_hit") /. float_of_int probes
        in
        (a.name, Obj [ ("memo_hit_rate", fixed 6 memo_rate); ("registry", Obs.Prof.to_json p) ]))
      Sched.Allocator.all
  in
  (* The net section: every Table 3 trace raced across every scheme x
     routing policy with live flow telemetry.  All-to-all traffic on
     the radix-16 trace; ring on the larger machines, where a single
     1000+-node job's all-to-all set is a million flows and would
     drown the race in routing work the congestion counters do not
     need (ring exercises the identical add/remove/index paths at
     O(k) flows per job).  Two built-in regression guards: the
     paper's headline — Jigsaw allocations routed over their own
     cables never interfere — and the pigeonhole invariant that no
     routing's peak max channel load can undercut the incremental
     lower bound. *)
  let net_shape_for (e : Trace.Presets.entry) =
    if e.cluster_radix <= 16 then Routing.Telemetry.Alltoall
    else Routing.Telemetry.Ring
  in
  let net_combos =
    List.concat_map
      (fun (e : Trace.Presets.entry) ->
        List.concat_map
          (fun (a : Sched.Allocator.t) ->
            List.map
              (fun p -> (e, a, p))
              [ Routing.Telemetry.Dmodk; Routing.Telemetry.Greedy;
                Routing.Telemetry.Jigsaw ])
          Sched.Allocator.all)
      entries
  in
  let net_rows =
    Format.printf
      "  net telemetry race: %d trace x scheme x routing cells@."
      (List.length net_combos);
    let cells =
      List.map
        (fun ((e : Trace.Presets.entry), (a : Sched.Allocator.t), p) ->
          Sched.Sweep.cell
            (Sched.Simulator.Config.make ~net:(p, net_shape_for e)
               ~radix:e.cluster_radix a)
            e.workload)
        net_combos
      |> Array.of_list
    in
    let results = Sched.Sweep.run ~jobs:bench_jobs cells in
    List.mapi
      (fun i ((e : Trace.Presets.entry), (a : Sched.Allocator.t), p) ->
        let trace = e.workload.Trace.Workload.name in
        let policy = Routing.Telemetry.policy_name p in
        let (s : Routing.Telemetry.summary) = Option.get results.(i).Sched.Sweep.net in
        if a.name = "Jigsaw" && policy = "jigsaw" && s.sm_peak_interfered <> 0
        then
          failwith
            (Printf.sprintf
               "net regression: Jigsaw-on-jigsaw shows %d interfered flows on %s"
               s.sm_peak_interfered trace);
        if s.sm_peak_max_load < s.sm_peak_lower_bound then
          failwith
            (Printf.sprintf
               "net invariant broken: %s %s/%s peak load %d under lower bound %d"
               trace a.name policy s.sm_peak_max_load s.sm_peak_lower_bound);
        Obj
          [ ("trace", str trace); ("scheme", str a.name); ("routing", str policy);
            ("shape", str (Routing.Telemetry.shape_name (net_shape_for e)));
            ("routed_jobs", Int s.sm_routed_jobs); ("routed_flows", Int s.sm_routed_flows);
            ("peak_max_load", Int s.sm_peak_max_load);
            ("mean_max_load", fixed 3 s.sm_mean_max_load); ("peak_leaf", Int s.sm_peak_leaf);
            ("peak_l2", Int s.sm_peak_l2); ("peak_shared", Int s.sm_peak_shared);
            ("peak_interfered", Int s.sm_peak_interfered);
            ("peak_lower_bound", Int s.sm_peak_lower_bound);
            ("interfered_fraction", fixed 6 s.sm_interfered_fraction) ])
      net_combos
  in
  (* Telemetry overhead on a busy radix-24 machine (no Table 3 preset
     uses that radix, so a bespoke synthetic workload): the same
     Jigsaw cell with telemetry off, then on, per shape, all
     un-instrumented fresh runs outside the shared cache — wall-clock
     needs real work.  A final profiled all-to-all run supplies the
     per-event route/retract span costs without polluting the timing
     pairs.  Ring tracking must stay within 1.5x of the bare run;
     all-to-all's ratio is recorded as data (its cost is the O(k^2)
     flow count, not the index). *)
  let net_overhead =
    let w24 =
      Trace.Synthetic.synth ~mean_size:24 ~n_jobs:1_500 ~seed:2401
        ~max_size:3456
    in
    let mk ?net ?(profile = false) () =
      Sched.Sweep.run_cell
        (Sched.Sweep.cell ~profile
           (Sched.Simulator.Config.make ?net ~radix:24 Sched.Allocator.jigsaw)
           w24)
    in
    let off = (mk ()).Sched.Sweep.wall_s in
    let runs =
      List.map
        (fun sh ->
          let on_ =
            (mk ~net:(Routing.Telemetry.Jigsaw, sh) ()).Sched.Sweep.wall_s
          in
          let r = ratio_of on_ off and shape = Routing.Telemetry.shape_name sh in
          Format.printf "  radix-24 overhead, %s flows: %.2fs on / %.2fs off (%.2fx)@."
            shape on_ off r;
          if sh = Routing.Telemetry.Ring && r > 1.5 then
            failwith
              (Printf.sprintf
                 "net overhead regression: ring telemetry %.2fx the bare run" r);
          Obj [ ("shape", str shape); ("wall_on_s", fixed 3 on_); ("ratio", fixed 3 r) ])
        [ Routing.Telemetry.Ring; Routing.Telemetry.Alltoall ]
    in
    let prof =
      Option.get
        (mk ~net:(Routing.Telemetry.Jigsaw, Routing.Telemetry.Alltoall)
           ~profile:true ())
          .Sched.Sweep.prof
    in
    let span name =
      match Obs.Prof.find_span prof name with
      | None -> Obj [ ("count", Int 0) ]
      | Some (s : Obs.Prof.span_view) ->
          Obj
            [ ("count", Int s.sp_count); ("mean_ns", fixed 1 s.sp_mean_ns);
              ("p50_ns", fixed 1 s.sp_p50_ns); ("p90_ns", fixed 1 s.sp_p90_ns);
              ("p99_ns", fixed 1 s.sp_p99_ns); ("max_ns", fixed 1 s.sp_max_ns) ]
    in
    Obj
      [ ("cluster_radix", Int 24); ("jobs", Int 1500); ("scheme", str "Jigsaw");
        ("routing", str "jigsaw"); ("wall_off_s", fixed 3 off); ("runs", List runs);
        ("route_span", span "net/route"); ("retract_span", span "net/retract") ]
  in
  (* The molding section: moldable Jigsaw (every job free to run
     anywhere in [pref/2, 2*pref]) raced against rigid on the Table 3
     traces, telemetry live.  Three regression guards encode the PR's
     claims: sized admission plus the grow pass may never cost
     utilization relative to rigid; Jigsaw allocations stay
     interference-free even as they shrink and grow mid-run; and
     shrink recovery must lose strictly less node-time to a fault
     than kill + resubmit does. *)
  let molding_rows =
    Format.printf "  molding: moldable vs rigid Jigsaw, %d traces@."
      (List.length entries);
    List.map
      (fun (e : Trace.Presets.entry) ->
        let rigid = run_sim e Sched.Allocator.jigsaw in
        let wm = Trace.Workload.moldable e.workload in
        let r =
          Sched.Sweep.run_cell
            (Sched.Sweep.cell
               (Sched.Simulator.Config.make
                  ~net:(Routing.Telemetry.Jigsaw, net_shape_for e)
                  ~radix:e.cluster_radix Sched.Allocator.jigsaw)
               wm)
        in
        let mold = r.Sched.Sweep.metrics in
        let s = Option.get r.Sched.Sweep.net in
        if mold.avg_utilization +. 1e-9 < rigid.avg_utilization then
          failwith
            (Printf.sprintf
               "molding regression: Jigsaw moldable utilization %.4f under \
                rigid %.4f on %s"
               mold.avg_utilization rigid.avg_utilization
               wm.Trace.Workload.name);
        if s.sm_peak_interfered <> 0 then
          failwith
            (Printf.sprintf
               "molding regression: %d interfered flows on moldable %s \
                (Jigsaw must stay interference-free while resizing)"
               s.sm_peak_interfered wm.Trace.Workload.name);
        Obj
          [ ("trace", str wm.Trace.Workload.name); ("jobs", Int (Trace.Workload.num_jobs wm));
            ("rigid_utilization", fixed 6 rigid.avg_utilization);
            ("moldable_utilization", fixed 6 mold.avg_utilization); ("grown", Int mold.grown);
            ("routed_flows", Int s.sm_routed_flows); ("peak_interfered", Int s.sm_peak_interfered)
          ])
      entries
  in
  let shrink_recovery =
    let e = List.hd entries in
    let wm = Trace.Workload.moldable e.workload in
    let makespan = (run_sim e Sched.Allocator.jigsaw).makespan in
    (* All three node faults land at the same mid-run instant, when the
       two runs' states are still identical: the policies then face the
       same victims with the same elapsed work, and the comparison is
       pure recovery policy.  (Staggered faults would diverge the
       schedules, so later faults would hit different jobs and the
       lost-work totals would compare different accidents, not the two
       policies.) *)
    let faults =
      Trace.Faults.scripted
        (List.map
           (fun node ->
             {
               Trace.Faults.time = 0.5 *. makespan;
               kind = Trace.Faults.Fail;
               target = Trace.Faults.Node node;
             })
           [ 3; 501; 900 ])
    in
    let run shrink =
      let resilience =
        {
          Sched.Simulator.requeue = true;
          resubmit_delay = 30.0;
          max_retries = 2;
          charge_lost_work = true;
          shrink;
        }
      in
      Sched.Simulator.run
        (Sched.Simulator.Config.make ~faults ~resilience
           ~radix:e.cluster_radix Sched.Allocator.jigsaw)
        wm
    in
    let with_shrink = run true and with_kill = run false in
    Format.printf
      "  shrink recovery on %s: %.0f node-s lost shrinking vs %.0f killing@."
      wm.Trace.Workload.name with_shrink.lost_node_time
      with_kill.lost_node_time;
    if with_shrink.lost_node_time >= with_kill.lost_node_time then
      failwith
        (Printf.sprintf
           "shrink regression: in-place shrink lost %.0f node-s, kill + \
            resubmit lost %.0f on %s"
           with_shrink.lost_node_time with_kill.lost_node_time
           wm.Trace.Workload.name);
    Obj
      [ ("trace", str wm.Trace.Workload.name); ("node_faults", Int 3);
        ( "shrink",
          Obj [ ("lost_node_time", fixed 1 with_shrink.lost_node_time);
                ("shrunk", Int with_shrink.shrunk);
                ("interrupted", Int with_shrink.interrupted) ] );
        ( "kill",
          Obj [ ("lost_node_time", fixed 1 with_kill.lost_node_time);
                ("interrupted", Int with_kill.interrupted); ("requeued", Int with_kill.requeued) ]
        ) ]
  in
  (* The sweep section: the full preset x scheme grid (45 cells at this
     scale) timed end-to-end at 1/2/4/8 domains.  Fingerprints of every
     cell must match the serial run bit-for-bit — the merge is
     submission-ordered, so domain count must be unobservable.  These
     runs bypass the shared cache: wall-clock comparisons need fresh
     work.  Speedup saturates at the host's core count; "host_domains"
     records what the hardware offered. *)
  let host_domains = Par.Pool.default_jobs () in
  let domain_counts =
    (* On a single-core host the 2/4/8-domain runs would only measure
       oversubscription — domains time-slicing one core — so the wall
       clocks would be meaningless as speedup data.  Record the serial
       run only and say so. *)
    if host_domains = 1 then begin
      Format.printf
        "  host offers 1 domain; skipping 2/4/8-domain sweep timings@.";
      [ 1 ]
    end
    else [ 1; 2; 4; 8 ]
  in
  let sweep_runs =
    List.map
      (fun jobs ->
        let cells = Sched.Sweep.grid ~full () in
        let t0 = Unix.gettimeofday () in
        let results = Sched.Sweep.run ~jobs cells in
        let wall = Unix.gettimeofday () -. t0 in
        let fps =
          Array.map
            (fun (r : Sched.Sweep.result) ->
              Sched.Metrics.fingerprint r.metrics)
            results
        in
        Format.printf "  sweep at %d domain%s: %.2fs@." jobs
          (if jobs = 1 then "" else "s")
          wall;
        (jobs, wall, fps))
      domain_counts
  in
  let _, serial_wall, serial_fps = List.hd sweep_runs in
  let report =
    Obj
      [
        ("bench_id", str "BENCH_0008");
        ("repro_scale", str (if full then "full" else "default"));
        ("host_domains", Int host_domains);
        ( "micro_try_alloc",
          Obj
            [ ("cluster", Obj [ ("radix", Int radix); ("target_occupancy", fixed 2 target) ]);
              ("rows", List micro_rows) ] );
        ( "scale",
          Obj
            [ ("radix_small", Int radix); ("radix_large", Int scale_radix);
              ("target_occupancy", fixed 2 target); ("rows", List scale_rows) ] );
        ( "primitives",
          Obj
            [ ("samples", Int primitive_samples);
              ( "rows",
                List
                  (List.map
                     (fun r ->
                       let med, lo, hi = r.p_ns in
                       Obj
                         ([ ("op", str r.p_op); ("input", str r.p_input); ("radix", Int r.p_radix);
                            ("mean_nodes", Int r.p_mean_nodes); ("median_ns", fixed 0 med);
                            ("min_ns", fixed 0 lo); ("max_ns", fixed 0 hi) ]
                         @
                         match r.p_words with
                         | Some (minor, major) ->
                             [ ("minor_words", fixed 1 minor); ("major_words", fixed 1 major) ]
                         | None -> []))
                     primitive_rows) ) ] );
        ( "sweep",
          Obj
            [ ("multi_domain_timings_skipped", Bool (host_domains = 1));
              ( "grid",
                Obj [ ("traces", Int 9); ("schemes", Int 5);
                      ("cells", Int (Array.length serial_fps)) ] );
              ( "runs",
                List
                  (List.map
                     (fun (jobs, wall, fps) ->
                       Obj
                         [ ("jobs", Int jobs); ("wall_s", fixed 3 wall);
                           ("speedup", fixed 3 (serial_wall /. wall));
                           ("fingerprints_match_serial", Bool (fps = serial_fps)) ])
                     sweep_runs) ) ] );
        ("traces", List trace_rows);
        ( "profile",
          Obj
            [ ("trace", str profile_entry.workload.Trace.Workload.name);
              ("jobs", Int (Trace.Workload.num_jobs profile_entry.workload));
              ("schemes", Obj profile_rows) ] );
        ("net", Obj [ ("rows", List net_rows); ("overhead", net_overhead) ]);
        ( "molding",
          Obj
            [ ("scheme", str "Jigsaw");
              ("bounds", Obj [ ("min_frac", fixed 1 0.5); ("max_frac", fixed 1 2.0) ]);
              ("rows", List molding_rows); ("shrink_recovery", shrink_recovery) ] );
      ]
  in
  let b = Buffer.create 65536 in
  write_tree b report;
  Out_channel.with_open_text bench_json_file (fun oc -> Buffer.output_buffer oc b);
  Format.printf
    "wrote %s (%d micro rows, %d scale rows, %d primitive rows, %d sweep runs, %d trace rows, %d profiles, %d net rows, %d molding rows)@."
    bench_json_file (List.length micro_rows) (List.length scale_rows)
    (List.length primitive_rows) (List.length sweep_runs)
    (List.length trace_rows)
    (List.length profile_rows)
    (List.length net_rows)
    (List.length molding_rows)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out.                  *)
(* ------------------------------------------------------------------ *)

let ablation () =
  section "Ablation A: Jigsaw's full-leaf restriction vs. least-constrained placement";
  (* Paper section 4: permitting every legal placement scatters partial
     leaves across the machine and *lowers* utilization.  Compare Jigsaw
     against the exclusive least-constrained scheduler. *)
  Format.printf "%-10s %10s %10s %10s@." "Trace" "Jigsaw" "LC(excl.)" "LaaS";
  List.iter
    (fun (e : Trace.Presets.entry) ->
      let e = sweep_entry ~cap:2_000 e in
      let j = run_sim e Sched.Allocator.jigsaw in
      let lc = run_sim e (Sched.Allocator.lc_exclusive ()) in
      let la = run_sim e Sched.Allocator.laas in
      Format.printf "%-10s %9.1f%% %9.1f%% %9.1f%%@." e.workload.name
        (100.0 *. j.avg_utilization)
        (100.0 *. lc.avg_utilization)
        (100.0 *. la.avg_utilization))
    [ Trace.Presets.synth_16 ~full; Trace.Presets.thunder ~full ];
  Format.printf
    "@.(expect: unrestricted LC at or below Jigsaw — permissiveness causes external@.";
  Format.printf " fragmentation — while both beat LaaS's padding)@.";

  section "Ablation B: EASY backfilling window (Jigsaw on Synth-16)";
  let e = sweep_entry ~cap:2_000 (Trace.Presets.synth_16 ~full) in
  Format.printf "%-10s %12s %14s@." "Window" "Utilization" "Avg turnaround";
  List.iter
    (fun window ->
      let cfg =
        Sched.Simulator.Config.make ~radix:e.cluster_radix
          Sched.Allocator.jigsaw
        |> Sched.Simulator.Config.with_backfill_window (max window 1)
        |> Sched.Simulator.Config.with_backfill (window > 0)
      in
      let m = Sched.Simulator.run cfg e.workload in
      Format.printf "%-10s %11.1f%% %14.0f@."
        (if window = 0 then "FIFO" else string_of_int window)
        (100.0 *. m.avg_utilization)
        m.avg_turnaround_all)
    [ 0; 1; 10; 50; 200 ];
  Format.printf
    "@.(expect: FIFO wastes the machine while big jobs drain; utilization grows@.";
  Format.printf " with the window and saturates around the paper's 50)@.";

  section "Ablation C: runtime-estimate accuracy (Jigsaw on Synth-16)";
  (* The paper's traces carry no usable estimates, so its simulator (and
     our default) plans with exact runtimes.  Real users over-request
     wall time; inflated estimates make EASY more conservative. *)
  Format.printf "%-10s %12s %14s@." "Estimate" "Utilization" "Avg turnaround";
  List.iter
    (fun factor ->
      let w = Trace.Workload.inflate_estimates e.workload factor in
      let cfg =
        Sched.Simulator.Config.make ~radix:e.cluster_radix
          Sched.Allocator.jigsaw
      in
      let m = Sched.Simulator.run cfg w in
      Format.printf "%-10s %11.1f%% %14.0f@."
        (Printf.sprintf "%.0fx" factor)
        (100.0 *. m.avg_utilization)
        m.avg_turnaround_all)
    [ 1.0; 2.0; 5.0; 10.0 ];
  Format.printf
    "@.(expect: utilization robust — the head still starts at actual completions —@.";
  Format.printf " while backfilling gets slightly more conservative)@."

(* ------------------------------------------------------------------ *)

let all_targets =
  [
    ("table1", table1);
    ("fig6", fig6);
    ("table2", table2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table3", table3);
    ("micro", micro);
    ("json", bench_json);
    ("primitives", primitives);
    ("ablation", ablation);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let chosen = if args = [] then List.map fst all_targets else args in
  Format.printf "Jigsaw reproduction benchmarks (%s scale)@."
    (if full then "paper (REPRO_FULL=1)" else "scaled-down default");
  List.iter
    (fun name ->
      match List.assoc_opt name all_targets with
      | Some f ->
          let t0 = Unix.gettimeofday () in
          f ();
          Format.printf "[%s took %.1fs]@." name (Unix.gettimeofday () -. t0)
      | None ->
          Format.eprintf
            "unknown target %s (expected: table1 fig6 table2 fig7 fig8 table3 micro json primitives ablation)@."
            name;
          exit 1)
    chosen
