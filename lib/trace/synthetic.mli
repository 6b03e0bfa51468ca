(** Synthetic trace generators.

    [synth] reproduces the paper's synthetic traces (modeled on JUROPA,
    following the LaaS paper): job sizes drawn from an exponential
    distribution, runtimes uniform on [20, 3000] s, all arriving at time
    zero.

    The [*_like] generators are deterministic stand-ins for the LLNL
    traces the paper uses (Thunder, Atlas, Cab), which are not available
    in this sealed environment (see DESIGN.md §3).  They reproduce the
    published characteristics: exponential-ish size distributions with
    extra mass on powers of two, runtimes heavily skewed toward short
    jobs, Atlas's occasional whole-machine requests, and — for Cab —
    retained arrival times forming a Poisson process tuned to a target
    offered load. *)

val synth :
  mean_size:int -> n_jobs:int -> seed:int -> max_size:int -> Workload.t
(** Paper's Synth-N traces: exponential sizes with the given mean (capped
    at [max_size], normally the cluster size), uniform runtimes 20–3000 s,
    arrivals all zero. *)

val thunder_like :
  ?runtime_cap:float -> ?huge_prob:float -> n_jobs:int -> seed:int -> unit -> Workload.t
(** 1024-node system; power-of-two-boosted sizes up to 965; lognormal
    short-skewed runtimes in [1, 172362] s; arrivals zero. *)

val atlas_like :
  ?runtime_cap:float -> ?huge_prob:float -> n_jobs:int -> seed:int -> unit -> Workload.t
(** 1152-node system; includes rare whole-machine (1024-node) requests —
    the paper's worst case for every scheduler; runtimes in [1, 342754]
    s; arrivals zero. *)

val cab_like :
  ?runtime_cap:float ->
  month:string ->
  n_jobs:int ->
  seed:int ->
  target_load:float ->
  arrival_scale:float ->
  unit ->
  Workload.t
(** 1296-node system with retained Poisson arrivals.  [target_load] is
    the offered load (demand / capacity) before [arrival_scale] is
    applied; the paper's Aug/Nov scaling by 0.5 doubles effective load.
    Sizes are capped at 258 (Table 1). *)

