(* jigsaw-daemon: run the scheduler as a crash-safe service.

   Examples:
     jigsaw-daemon --socket /tmp/jig.sock --dir /tmp/jig-state \
       --sched Jigsaw --radix 16
     jigsaw-daemon --socket jig.sock --dir state --preset Synth-16
     jigsaw-daemon --socket jig.sock --dir state --time-scale 60
     jigsaw-daemon --socket jig.sock --dir state --supervise

   The state directory is self-describing (WAL segment headers carry the
   full config); restarting over an existing directory needs no scheme
   flags and refuses conflicting ones.  Kill it however you like —
   including kill -9 mid-request — and restart: recovery replays the
   write-ahead log into exactly the acknowledged state. *)

open Cmdliner

let state_dir_initialized dir =
  Sys.file_exists dir
  && Sys.is_directory dir
  && Array.exists
       (fun n ->
         String.length n > 4 && String.sub n 0 4 = "wal-"
         && Filename.check_suffix n ".jsonl")
       (Sys.readdir dir)

(* Supervisor: fork the serve loop, restart it when it dies abnormally
   (a crash), with exponential backoff; a clean exit (shutdown op or
   SIGTERM handled inside) ends supervision.  The supervisor forwards
   SIGTERM/SIGINT to the child so `kill <supervisor>` still shuts the
   service down gracefully. *)
let supervise serve =
  let child = ref 0 in
  let forward s =
    try Sys.set_signal s (Sys.Signal_handle (fun _ ->
        if !child > 0 then try Unix.kill !child s with Unix.Unix_error _ -> ()))
    with Invalid_argument _ -> ()
  in
  forward Sys.sigterm;
  forward Sys.sigint;
  let rec loop backoff =
    let started = Unix.gettimeofday () in
    match Unix.fork () with
    | 0 -> exit (serve ())
    | pid -> (
        child := pid;
        let _, status =
          let rec wait () =
            try Unix.waitpid [] pid
            with Unix.Unix_error (EINTR, _, _) -> wait ()
          in
          wait ()
        in
        child := 0;
        match status with
        | Unix.WEXITED 0 -> 0
        | Unix.WEXITED n when n <> 0 && Unix.gettimeofday () -. started < 1.0
          ->
            (* Fast failure loop on a persistent error (bad state dir):
               give up rather than spin. *)
            Format.eprintf "jigsaw-daemon: child exited %d immediately; not \
                            restarting@." n;
            n
        | Unix.WEXITED n ->
            Format.eprintf "jigsaw-daemon: child exited %d; restarting in \
                            %.1fs@." n backoff;
            Unix.sleepf backoff;
            loop (Float.min 5.0 (backoff *. 2.0))
        | Unix.WSIGNALED s | Unix.WSTOPPED s ->
            Format.eprintf "jigsaw-daemon: child died (signal %d); restarting \
                            in %.1fs@." s backoff;
            Unix.sleepf backoff;
            loop (Float.min 5.0 (backoff *. 2.0))
        | exception Unix.Unix_error _ -> 1)
  in
  loop 0.1

let run socket dir preset full sched radix scenario seed window no_backfill
    requeue resubmit_delay charge_lost_work trace_name system_nodes time_scale
    max_clients max_queue client_timeout ckpt_ops ckpt_s retain allow_crash
    quiet supervised =
  let fail fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; exit 1) fmt in
  let params =
    if state_dir_initialized dir then None
    else begin
      (* Fresh directory: pin the config now; it travels in every WAL
         segment header from here on. *)
      let radix, trace_name, system_nodes =
        match preset with
        | None ->
            (* The full fat-tree's k^3/4 nodes; the daemon rejects a bad
               radix when it resolves the params. *)
            let sn =
              Option.value system_nodes ~default:(radix * radix * radix / 4)
            in
            (radix, Option.value trace_name ~default:"daemon", sn)
        | Some p -> (
            match Trace.Presets.by_name ~full p with
            | None -> fail "unknown preset %S" p
            | Some e ->
                ( e.cluster_radix,
                  e.workload.name,
                  e.workload.system_nodes ))
      in
      let resilience =
        Cli_common.resilience ~requeue ~resubmit_delay ~charge_lost_work
      in
      Some
        {
          Svc.Core.scheme = sched;
          radix;
          scenario;
          scenario_seed = seed;
          backfill_window = window;
          backfill = not no_backfill;
          resilience;
          trace_name;
          system_nodes;
        }
    end
  in
  let opts =
    {
      (Svc.Daemon.default_opts ~socket ~dir) with
      params;
      time_scale;
      max_clients;
      max_queue;
      client_timeout;
      ckpt_every_ops = ckpt_ops;
      ckpt_every_s = ckpt_s;
      retain;
      allow_crash_op = allow_crash;
      log = (if quiet then ignore else fun m -> Format.eprintf "[jigsaw-daemon] %s@." m);
    }
  in
  let serve () =
    match Svc.Daemon.run opts with
    | Ok () -> 0
    | Error m ->
        Format.eprintf "jigsaw-daemon: %s@." m;
        1
  in
  if supervised then exit (supervise serve) else exit (serve ())

let cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on.")
  in
  let dir =
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"State directory (write-ahead log + checkpoints); created if \
                 missing.  An initialized directory fixes the simulation \
                 config — scheme flags are then unnecessary, and conflicting \
                 ones are refused.")
  in
  let preset =
    Arg.(value & opt (some string) None & info [ "preset" ] ~docv:"NAME"
           ~doc:"Adopt a preset trace's identity (name, cluster radix, system \
                 nodes) so a drained daemon run is fingerprint-comparable \
                 with 'jigsaw-sim --trace NAME'.  Jobs still arrive over the \
                 socket (see jigsaw-client --play).")
  in
  let full =
    Arg.(value & flag & info [ "full" ]
           ~doc:"With --preset: paper-scale job counts.")
  in
  let sched =
    Arg.(value & opt string "Jigsaw" & info [ "sched" ] ~docv:"NAME"
           ~doc:"Scheduling scheme (fresh state dir only).")
  in
  let radix =
    Arg.(value & opt int 16 & info [ "radix" ] ~docv:"K"
           ~doc:"Switch radix of the simulated cluster (fresh dir only).")
  in
  let scenario =
    Arg.(value & opt string "None" & info [ "scenario" ] ~docv:"S"
           ~doc:"Performance scenario, as in jigsaw-sim (fresh dir only).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "scenario-seed" ] ~docv:"N")
  in
  let window =
    Arg.(value & opt int 50 & info [ "window" ] ~docv:"N"
           ~doc:"EASY backfill window (fresh dir only).")
  in
  let no_backfill =
    Arg.(value & flag & info [ "no-backfill" ]
           ~doc:"Plain FIFO: disable EASY backfilling (fresh dir only).")
  in
  let requeue =
    Cli_common.requeue_arg
      ~doc:"Fault-recovery policy: N (resubmit killed jobs at most N times \
            each), 'shrink' (moldable victims shed their failed nodes in \
            place), or 'shrink:N' (both)."
  in
  let resubmit_delay =
    Cli_common.resubmit_delay_arg
      ~doc:"Delay between a fault killing a job and its resubmission."
  in
  let charge_lost_work =
    Arg.(value & flag & info [ "charge-lost-work" ])
  in
  let trace_name =
    Arg.(value & opt (some string) None & info [ "trace-name" ] ~docv:"NAME"
           ~doc:"Workload name stamped into metrics/fingerprints (fresh dir \
                 only; default: daemon).")
  in
  let system_nodes =
    Arg.(value & opt (some int) None & info [ "system-nodes" ] ~docv:"N"
           ~doc:"Node count reported in metrics (default: the radix's full \
                 fat-tree).")
  in
  let time_scale =
    Arg.(value & opt (some float) None & info [ "time-scale" ] ~docv:"X"
           ~doc:"Wall-clock mode: advance the simulation X simulated seconds \
                 per real second.  Default: logical time — the clock moves \
                 only on request stamps and the advance op, which is the \
                 deterministic mode the tests use.")
  in
  let max_clients =
    Arg.(value & opt int 32 & info [ "max-clients" ] ~docv:"N")
  in
  let max_queue =
    Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Ingest queue bound; beyond it requests are shed with an \
                 overloaded reply and a retry-after hint.")
  in
  let client_timeout =
    Arg.(value & opt float 10.0 & info [ "client-timeout" ] ~docv:"SECONDS"
           ~doc:"Disconnect clients that stop draining replies for this \
                 long.")
  in
  let ckpt_ops =
    Arg.(value & opt int 64 & info [ "checkpoint-every-ops" ] ~docv:"N")
  in
  let ckpt_s =
    Arg.(value & opt float 5.0 & info [ "checkpoint-every-s" ] ~docv:"SECONDS")
  in
  let retain =
    Arg.(value & opt int 2 & info [ "retain" ] ~docv:"N"
           ~doc:"Checkpoints retained; older ones are pruned and the WAL \
                 segments feeding only them are deleted.")
  in
  let allow_crash =
    Arg.(value & flag & info [ "allow-crash" ]
           ~doc:"Honor the crash test op (self-SIGKILL / crash-point \
                 arming).  For the recovery test suite only.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ]) in
  let supervise =
    Arg.(value & flag & info [ "supervise" ]
           ~doc:"Run under a supervisor that restarts the daemon with \
                 exponential backoff when it dies abnormally; recovery makes \
                 the restart invisible to clients beyond retried requests.")
  in
  let term =
    Term.(
      const run $ socket $ dir $ preset $ full $ sched $ radix $ scenario
      $ seed $ window $ no_backfill $ requeue $ resubmit_delay
      $ charge_lost_work $ trace_name $ system_nodes $ time_scale
      $ max_clients $ max_queue $ client_timeout $ ckpt_ops $ ckpt_s $ retain
      $ allow_crash $ quiet $ supervise)
  in
  Cmd.v
    (Cmd.info "jigsaw-daemon" ~version:"1.0.0"
       ~doc:"Crash-safe scheduler-as-a-service over a Unix-domain socket")
    term

let () = exit (Cmd.eval cmd)
