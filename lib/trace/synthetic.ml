let bw_classes = [| 0.125; 0.25; 0.375; 0.5 |]

let draw_bw prng = bw_classes.(Sim.Prng.int prng ~bound:4)

let synth ~mean_size ~n_jobs ~seed ~max_size =
  let prng = Sim.Prng.create ~seed in
  let jobs =
    Array.init n_jobs (fun id ->
        let size =
          let s =
            int_of_float (Float.round (Sim.Prng.exponential prng ~mean:(float_of_int mean_size)))
          in
          max 1 (min max_size s)
        in
        let runtime = Sim.Prng.float_in prng ~lo:20.0 ~hi:3000.0 in
        Job.v ~id ~size ~runtime ~bw_class:(draw_bw prng) ())
  in
  Workload.create ~name:(Printf.sprintf "Synth-%d" mean_size) ~system_nodes:0 jobs

(* Round to the nearest power of two, at least 1. *)
let nearest_pow2 n =
  if n <= 1 then 1
  else begin
    let lower = 1 lsl (int_of_float (Float.log2 (float_of_int n))) in
    let upper = lower * 2 in
    if n - lower <= upper - n then lower else upper
  end

(* Sizes "roughly exponential in shape but with more job sizes that are
   powers of two" (paper §5.1). *)
let hpc_size prng ~mean ~cap =
  let s =
    int_of_float (Float.round (Sim.Prng.exponential prng ~mean:(float_of_int mean)))
  in
  let s = max 1 (min cap s) in
  if Sim.Prng.float prng ~bound:1.0 < 0.45 then min cap (nearest_pow2 s) else s

(* Runtimes "skewed towards short-running jobs with only a handful of
   long-running jobs": lognormal body with a clamped range. *)
let hpc_runtime prng ~lo ~hi ~median ~sigma =
  let r = Sim.Prng.lognormal prng ~mu:(Float.log median) ~sigma in
  Float.max lo (Float.min hi r)

let thunder_like ?(runtime_cap = 172362.0) ?(huge_prob = 0.0008) ~n_jobs ~seed
    () =
  let prng = Sim.Prng.create ~seed in
  let jobs =
    Array.init n_jobs (fun id ->
        let size =
          if Sim.Prng.float prng ~bound:1.0 < huge_prob then
            Sim.Prng.int_in prng ~lo:512 ~hi:965
          else hpc_size prng ~mean:18 ~cap:512
        in
        let runtime =
          hpc_runtime prng ~lo:1.0 ~hi:runtime_cap ~median:400.0 ~sigma:1.9
        in
        Job.v ~id ~size ~runtime ~bw_class:(draw_bw prng) ())
  in
  Workload.create ~name:"Thunder" ~system_nodes:1024 jobs

let atlas_like ?(runtime_cap = 342754.0) ?(huge_prob = 0.002) ~n_jobs ~seed ()
    =
  let prng = Sim.Prng.create ~seed in
  let jobs =
    Array.init n_jobs (fun id ->
        let size =
          let r = Sim.Prng.float prng ~bound:1.0 in
          if r < huge_prob then 1024 (* whole-machine requests *)
          else if r < 2.0 *. huge_prob then Sim.Prng.int_in prng ~lo:512 ~hi:1000
          else hpc_size prng ~mean:24 ~cap:512
        in
        let runtime =
          hpc_runtime prng ~lo:1.0 ~hi:runtime_cap ~median:700.0 ~sigma:1.9
        in
        Job.v ~id ~size ~runtime ~bw_class:(draw_bw prng) ())
  in
  Workload.create ~name:"Atlas" ~system_nodes:1152 jobs

let cab_like ?(runtime_cap = 86429.0) ~month ~n_jobs ~seed ~target_load
    ~arrival_scale () =
  let prng = Sim.Prng.create ~seed in
  let system_nodes = 1296 in
  let sizes_runtimes =
    Array.init n_jobs (fun _ ->
        let size =
          let r = Sim.Prng.float prng ~bound:1.0 in
          (* Cab carried a sprinkling of capability jobs up to ~257 nodes
             (Table 1); the bulk of the distribution is small. *)
          if r < 0.002 then Sim.Prng.int_in prng ~lo:250 ~hi:258
          else if r < 0.012 then Sim.Prng.int_in prng ~lo:100 ~hi:249
          else hpc_size prng ~mean:9 ~cap:99
        in
        let runtime =
          hpc_runtime prng ~lo:1.0 ~hi:runtime_cap ~median:220.0 ~sigma:1.9
        in
        (size, runtime))
  in
  (* Poisson arrivals: pick the rate so that offered load (node-seconds
     demanded per node-second of capacity) matches target_load. *)
  let mean_work =
    Array.fold_left
      (fun acc (s, r) -> acc +. (float_of_int s *. r))
      0.0 sizes_runtimes
    /. float_of_int n_jobs
  in
  let rate = target_load *. float_of_int system_nodes /. mean_work in
  let clock = ref 0.0 in
  let jobs =
    Array.mapi
      (fun id (size, runtime) ->
        clock := !clock +. Sim.Prng.exponential prng ~mean:(1.0 /. rate);
        Job.v ~id ~size ~runtime
          ~arrival:(!clock *. arrival_scale)
          ~bw_class:(draw_bw prng) ())
      sizes_runtimes
  in
  Workload.create ~name:(month ^ "-Cab") ~system_nodes jobs
