(* Profiling registry: counters, gauges and span timers keyed by name.

   This is the wall-clock side of observability — everything the event
   trace deliberately excludes.  Names use a "phase/metric" convention
   ("sched/head_probe", "state/clones", "gauge/queue_depth"); the report
   groups by the prefix, which is what turns a flat registry into the
   per-phase profile. *)

type span = {
  mutable s_count : int;
  mutable s_total_ns : float;
  mutable s_max_ns : float;
  s_hist : Sim.Stats.Hist.t;
}

type t = {
  owner : int;  (** Domain id of the creator — the only legal writer. *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, Sim.Stats.Acc.t) Hashtbl.t;
  spans : (string, span) Hashtbl.t;
}

(* Decade buckets from 1 us to 1 s: allocation probes on big clusters
   span roughly this range (BENCH json has the exact means). *)
let span_boundaries = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let create () =
  {
    owner = (Domain.self () :> int);
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    spans = Hashtbl.create 16;
  }

(* Single-writer discipline: a registry is plain mutable state with no
   locking, so a stray cross-domain record would silently corrupt
   counts.  Every mutator asserts the caller is the creating domain;
   cross-domain {e reads} are fine once the writer has been joined
   (the join provides the happens-before edge). *)
let check_owner t =
  let d = (Domain.self () :> int) in
  if d <> t.owner then
    invalid_arg
      (Printf.sprintf
         "Obs.Prof: write from domain %d to a registry owned by domain %d \
          (registries are single-writer; merge after joining instead)"
         d t.owner)

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let incr t name =
  check_owner t;
  Stdlib.incr (counter_ref t name)

let add t name by =
  check_owner t;
  counter_ref t name := !(counter_ref t name) + by

let set t name v =
  check_owner t;
  counter_ref t name := v
let counter t name = match Hashtbl.find_opt t.counters name with
  | Some r -> !r
  | None -> 0

let sample t name v =
  check_owner t;
  let acc =
    match Hashtbl.find_opt t.gauges name with
    | Some a -> a
    | None ->
        let a = Sim.Stats.Acc.create () in
        Hashtbl.replace t.gauges name a;
        a
  in
  Sim.Stats.Acc.add acc v

let span t name =
  match Hashtbl.find_opt t.spans name with
  | Some s -> s
  | None ->
      let s =
        {
          s_count = 0;
          s_total_ns = 0.0;
          s_max_ns = 0.0;
          s_hist = Sim.Stats.Hist.create ~boundaries:span_boundaries;
        }
      in
      Hashtbl.replace t.spans name s;
      s

let record_span t name ns =
  check_owner t;
  let s = span t name in
  s.s_count <- s.s_count + 1;
  s.s_total_ns <- s.s_total_ns +. ns;
  if ns > s.s_max_ns then s.s_max_ns <- ns;
  Sim.Stats.Hist.add s.s_hist ns

let time t name f =
  let t0 = Clock.now_ns () in
  let r = f () in
  record_span t name (Clock.elapsed_ns ~since:t0);
  r

(* Associative merge of a per-cell registry into an aggregate: counters
   and histogram buckets are integers (exact, order-independent);
   span/gauge totals are float sums, so callers that need reproducible
   totals merge in a fixed order (cell submission order — never domain
   order).  Memo-hit {e rates} are not stored, only the underlying
   counters, so they recompute correctly from the merged registry. *)
let merge_into ~into src =
  check_owner into;
  Hashtbl.iter
    (fun name r -> counter_ref into name := !(counter_ref into name) + !r)
    src.counters;
  Hashtbl.iter
    (fun name acc ->
      match Hashtbl.find_opt into.gauges name with
      | Some dst -> Sim.Stats.Acc.merge_into ~into:dst acc
      | None ->
          let dst = Sim.Stats.Acc.create () in
          Sim.Stats.Acc.merge_into ~into:dst acc;
          Hashtbl.replace into.gauges name dst)
    src.gauges;
  Hashtbl.iter
    (fun name s ->
      let d = span into name in
      d.s_count <- d.s_count + s.s_count;
      d.s_total_ns <- d.s_total_ns +. s.s_total_ns;
      if s.s_max_ns > d.s_max_ns then d.s_max_ns <- s.s_max_ns;
      Sim.Stats.Hist.merge_into ~into:d.s_hist s.s_hist)
    src.spans

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = List.map (fun (k, r) -> (k, !r)) (sorted t.counters)

type gauge_view = { g_samples : int; g_mean : float; g_min : float; g_max : float }

let gauge_view acc =
  let n = Sim.Stats.Acc.count acc in
  {
    g_samples = n;
    g_mean = Sim.Stats.Acc.mean acc;
    g_min = (if n = 0 then 0.0 else Sim.Stats.Acc.min acc);
    g_max = (if n = 0 then 0.0 else Sim.Stats.Acc.max acc);
  }

let gauges t = List.map (fun (k, a) -> (k, gauge_view a)) (sorted t.gauges)

type span_view = {
  sp_count : int;
  sp_total_ns : float;
  sp_mean_ns : float;
  sp_max_ns : float;
  sp_p50_ns : float;
  sp_p90_ns : float;
  sp_p99_ns : float;
  sp_hist : int array;
}

(* Histogram-derived percentile: the upper edge of the bucket where the
   cumulative count crosses the quantile, clamped by the observed
   maximum (which is also the estimate for the open overflow bucket).
   Decade buckets make this an order-of-magnitude answer — exactly the
   resolution a tail-latency report needs. *)
let hist_percentile counts total max_ns q =
  if total = 0 then 0.0
  else begin
    let rank = q *. float_of_int total in
    let acc = ref 0 and bucket = ref (Array.length counts - 1) in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if float_of_int !acc >= rank then begin
             bucket := i;
             raise Exit
           end)
         counts
     with Exit -> ());
    if !bucket >= Array.length span_boundaries then max_ns
    else Float.min span_boundaries.(!bucket) max_ns
  end

let span_view s =
  let hist = Sim.Stats.Hist.counts s.s_hist in
  let pct q = hist_percentile hist s.s_count s.s_max_ns q in
  {
    sp_count = s.s_count;
    sp_total_ns = s.s_total_ns;
    sp_mean_ns =
      (if s.s_count = 0 then 0.0 else s.s_total_ns /. float_of_int s.s_count);
    sp_max_ns = s.s_max_ns;
    sp_p50_ns = pct 0.5;
    sp_p90_ns = pct 0.9;
    sp_p99_ns = pct 0.99;
    sp_hist = hist;
  }

let spans t = List.map (fun (k, s) -> (k, span_view s)) (sorted t.spans)

let find_span t name = Option.map span_view (Hashtbl.find_opt t.spans name)

(* ------------------------------------------------------------------ *)
(* Flat codec                                                          *)
(* ------------------------------------------------------------------ *)

(* A single-line textual round-trip for persisting a registry inside a
   flat [Json] string field (the sweep manifest).  [to_json] cannot
   serve: it nests, and its rounded floats lose bits.  Records are
   ';'-separated, fields '|'-separated; floats use %h (hex), which is
   exact.  Metric names are identifiers like "sched/head_probe", so the
   separators never appear in practice — encode checks anyway. *)

let codec_name_ok name =
  name <> ""
  && String.for_all (fun ch -> ch <> '|' && ch <> ';' && ch <> '\n') name

let encode t =
  let b = Buffer.create 512 in
  let first = ref true in
  let emit fmt =
    Printf.ksprintf
      (fun s ->
        if !first then first := false else Buffer.add_char b ';';
        Buffer.add_string b s)
      fmt
  in
  let check name =
    if not (codec_name_ok name) then
      invalid_arg ("Obs.Prof.encode: reserved character in name: " ^ name)
  in
  List.iter
    (fun (k, r) ->
      check k;
      emit "c|%s|%d" k !r)
    (sorted t.counters);
  List.iter
    (fun (k, acc) ->
      check k;
      let n = Sim.Stats.Acc.count acc in
      let mn = if n = 0 then 0.0 else Sim.Stats.Acc.min acc in
      let mx = if n = 0 then 0.0 else Sim.Stats.Acc.max acc in
      emit "g|%s|%d|%h|%h|%h|%h" k n
        (Sim.Stats.Acc.total acc)
        (Sim.Stats.Acc.sum_sq acc)
        mn mx)
    (sorted t.gauges);
  List.iter
    (fun (k, s) ->
      check k;
      let hist =
        Sim.Stats.Hist.counts s.s_hist |> Array.to_list
        |> List.map string_of_int |> String.concat " "
      in
      emit "s|%s|%d|%h|%h|%s" k s.s_count s.s_total_ns s.s_max_ns hist)
    (sorted t.spans);
  Buffer.contents b

let decode str =
  let t = create () in
  let fail fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Obs.Prof.decode: " ^ m)) fmt
  in
  let int_of s = try int_of_string s with _ -> fail "bad int %S" s in
  let float_of s = try float_of_string s with _ -> fail "bad float %S" s in
  if str <> "" then
    List.iter
      (fun record ->
        match String.split_on_char '|' record with
        | [ "c"; name; v ] -> counter_ref t name := int_of v
        | [ "g"; name; n; total; sum_sq; mn; mx ] ->
            let acc =
              Sim.Stats.Acc.restore ~count:(int_of n) ~total:(float_of total)
                ~sum_sq:(float_of sum_sq) ~min:(float_of mn)
                ~max:(float_of mx)
            in
            Hashtbl.replace t.gauges name acc
        | [ "s"; name; count; total_ns; max_ns; hist ] ->
            let counts =
              String.split_on_char ' ' hist
              |> List.map int_of |> Array.of_list
            in
            let s =
              {
                s_count = int_of count;
                s_total_ns = float_of total_ns;
                s_max_ns = float_of max_ns;
                s_hist =
                  Sim.Stats.Hist.restore ~boundaries:span_boundaries ~counts;
              }
            in
            Hashtbl.replace t.spans name s
        | _ -> fail "malformed record %S" record)
      (String.split_on_char ';' str);
  t

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let ms ns = ns /. 1e6

let pp_report ppf t =
  let spans = spans t and counters = counters t and gauges = gauges t in
  Format.fprintf ppf "profile:@.";
  if spans <> [] then begin
    Format.fprintf ppf
      "  spans (count / total ms / mean us / p50 us / p90 us / p99 us / max \
       ms):@.";
    List.iter
      (fun (name, v) ->
        Format.fprintf ppf "    %-24s %9d %11.3f %9.2f %9.2f %9.2f %9.2f %9.3f@."
          name v.sp_count (ms v.sp_total_ns) (v.sp_mean_ns /. 1e3)
          (v.sp_p50_ns /. 1e3) (v.sp_p90_ns /. 1e3) (v.sp_p99_ns /. 1e3)
          (ms v.sp_max_ns))
      spans;
    Format.fprintf ppf
      "    (span histogram buckets: <=1us 1-10us 10-100us 0.1-1ms 1-10ms 10-100ms 0.1-1s >1s)@.";
    List.iter
      (fun (name, v) ->
        Format.fprintf ppf "    %-24s %s@." name
          (String.concat " " (Array.to_list (Array.map string_of_int v.sp_hist))))
      spans
  end;
  if counters <> [] then begin
    Format.fprintf ppf "  counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "    %-32s %12d@." name v)
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf ppf "  gauges (samples / mean / min / max):@.";
    List.iter
      (fun (name, g) ->
        Format.fprintf ppf "    %-24s %9d %12.2f %10.0f %10.0f@." name
          g.g_samples g.g_mean g.g_min g.g_max)
      gauges
  end

let to_json t =
  let open Json in
  let section rows f = Obj (List.map (fun (k, v) -> (k, f v)) rows) in
  Obj
    [
      ("counters", section (counters t) (fun v -> Int v));
      ( "spans",
        section (spans t) (fun v ->
            Obj
              [
                ("count", Int v.sp_count);
                ("total_ns", Fixed (0, v.sp_total_ns));
                ("mean_ns", Fixed (1, v.sp_mean_ns));
                ("max_ns", Fixed (0, v.sp_max_ns));
                ("p50_ns", Fixed (0, v.sp_p50_ns));
                ("p90_ns", Fixed (0, v.sp_p90_ns));
                ("p99_ns", Fixed (0, v.sp_p99_ns));
                ("hist", List (List.map (fun c -> Int c) (Array.to_list v.sp_hist)));
              ]) );
      ( "gauges",
        section (gauges t) (fun g ->
            Obj
              [
                ("samples", Int g.g_samples);
                ("mean", Fixed (3, g.g_mean));
                ("min", Float g.g_min);
                ("max", Float g.g_max);
              ]) );
    ]
