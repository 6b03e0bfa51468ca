(* jigsaw-client: talk to a running jigsaw-daemon.

   Examples:
     jigsaw-client --socket jig.sock --submit 64,3600
     jigsaw-client --socket jig.sock --fail node,12 --at 500
     jigsaw-client --socket jig.sock --play Synth-16 --jobs 50
     jigsaw-client --socket jig.sock --drain --fingerprint
     jigsaw-client --socket jig.sock --status

   Every state-mutating request carries a request id (rid); on a
   connection failure, a missing reply, or an overloaded shed the client
   retries with exponential backoff plus jitter, and the daemon's rid
   table turns the retries into acknowledged no-ops — at-most-once
   application with at-least-once delivery, surviving daemon crashes in
   between. *)

open Cmdliner

let () = Random.self_init ()

type conn = { mutable fd : Unix.file_descr option }

let disconnect c =
  (match c.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  c.fd <- None

let connect c sock =
  match c.fd with
  | Some fd -> fd
  | None ->
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      (try Unix.connect fd (ADDR_UNIX sock)
       with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
      c.fd <- Some fd;
      fd

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let w = Unix.write_substring fd s off (n - off) in
      go (off + w)
  in
  go 0

let read_line_fd fd =
  let b = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length b = 0 then raise End_of_file else Buffer.contents b
    | _ ->
        if Bytes.get byte 0 = '\n' then Buffer.contents b
        else (Buffer.add_char b (Bytes.get byte 0); go ())
  in
  go ()

let backoff attempt =
  (* Exponential with full jitter, capped at 2 s. *)
  Random.float (Float.min 2.0 (0.05 *. Float.pow 2.0 (float_of_int attempt)))

(* One request, at-least-once: retries rebuild the connection, resend
   the same line (same rid), and honor overload retry-after hints.
   Returns the parsed reply fields of the first definitive answer. *)
let rpc c ~sock ~retries line =
  let rec go attempt =
    let retry_after hint =
      if attempt >= retries then None
      else begin
        disconnect c;
        Unix.sleepf (Float.max hint (backoff attempt));
        Some (attempt + 1)
      end
    in
    match
      let fd = connect c sock in
      write_all fd line;
      read_line_fd fd
    with
    | exception (Unix.Unix_error _ | End_of_file) -> (
        match retry_after 0.0 with
        | Some a -> go a
        | None -> Error "daemon unreachable (retries exhausted)")
    | reply -> (
        match Obs.Json.parse_line reply with
        | exception Obs.Json.Parse_error m ->
            Error ("unparseable reply: " ^ m)
        | fields -> (
            if Obs.Json.mem fields "ok" && Obs.Json.int fields "ok" = 1 then
              Ok fields
            else
              match Svc.Protocol.error_of_fields fields with
              | exception Obs.Json.Parse_error m ->
                  Error ("unparseable reply: " ^ m)
              | { code = Overloaded; retry_after = hint; _ } -> (
                  match retry_after (Option.value hint ~default:0.0) with
                  | Some a -> go a
                  | None -> Error "daemon overloaded (retries exhausted)")
              | { code; message; _ } ->
                  Error
                    (Printf.sprintf "%s: %s"
                       (Svc.Protocol.error_code_name code)
                       message)))
  in
  go 0

let fresh_rid =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "cli:%d:%x:%d" (Unix.getpid ()) (Random.bits ()) !n

let parse_pair what spec =
  match String.split_on_char ',' spec with
  | [ a; b ] -> (a, b)
  | _ ->
      Format.eprintf "bad %s spec %S (want TARGET,INDEX)@." what spec;
      exit 1

let run sock retries at rid ping status stats advance submit min_size max_size
    resize cancel fail_t repair_t play full jobs drain fingerprint shutdown
    crash =
  let c = { fd = None } in
  let failed = ref false in
  let send ?(quiet = false) ?(tolerate = fun _ -> false) ?(rid = rid)
      ?(at = at) ?(version = 1) req =
    let rid = Some (Option.value rid ~default:(fresh_rid ())) in
    let line = Svc.Protocol.request_line { rid; at; version; req } in
    match rpc c ~sock ~retries line with
    | Error m when tolerate m -> None
    | Error m ->
        Format.eprintf "jigsaw-client: %s@." m;
        failed := true;
        None
    | Ok reply ->
        if not quiet then begin
          let b = Buffer.create 128 in
          Obs.Json.write b reply;
          print_endline (Buffer.contents b)
        end;
        Some reply
  in
  if ping then ignore (send Ping);
  (match play with
  | None -> ()
  | Some name -> (
      match Trace.Presets.by_name ~full name with
      | None ->
          Format.eprintf "unknown preset %S@." name;
          exit 1
      | Some e ->
          let w =
            match jobs with
            | None -> e.workload
            | Some n -> Trace.Workload.truncate e.workload n
          in
          (* Re-playing after a restart may outlive the daemon's rid
             window (old WAL segments are GC'd after checkpoints), but
             play ids are deterministic: a duplicate-job-id rejection
             only means this exact submission was already accepted. *)
          let already_in m =
            String.length m >= 25
            && String.sub m 0 25 = "invalid: duplicate job id"
          in
          Array.iter
            (fun (j : Trace.Job.t) ->
              if not !failed then
                ignore
                  (send ~quiet:true ~tolerate:already_in
                     ~rid:(Some (Printf.sprintf "play:%s:%d" w.name j.id))
                     ~at:(Some j.arrival)
                     (Submit
                        {
                          id = Some j.id;
                          size = j.size;
                          min_size = None;
                          max_size = None;
                          runtime = j.runtime;
                          est_runtime = Some j.est_runtime;
                          bw_class = Some j.bw_class;
                        })))
            w.jobs;
          if not !failed then
            Format.eprintf "played %d jobs from %s@." (Array.length w.jobs)
              w.name));
  (match submit with
  | None -> ()
  | Some spec ->
      let parsed =
        match
          String.split_on_char ',' spec |> List.map float_of_string
        with
        | [ size; runtime ] -> Some (size, runtime, None, None)
        | [ size; runtime; est ] -> Some (size, runtime, Some est, None)
        | [ size; runtime; est; bw ] -> Some (size, runtime, Some est, Some bw)
        | _ | (exception Failure _) -> None
      in
      match parsed with
      | Some (size, runtime, est_runtime, bw_class) when Float.is_integer size
        ->
          (* Moldable bounds ride on the v2 protocol; rigid submissions
             keep the v1 wire shape so old daemons still accept them. *)
          let version = if min_size = None && max_size = None then 1 else 2 in
          ignore
            (send ~version
               (Submit
                  {
                    id = None;
                    size = int_of_float size;
                    min_size;
                    max_size;
                    runtime;
                    est_runtime;
                    bw_class;
                  }))
      | _ ->
          Format.eprintf
            "bad --submit spec %S (want SIZE,RUNTIME[,EST[,BW]])@." spec;
          exit 1);
  Option.iter (fun id -> ignore (send (Cancel { id }))) cancel;
  (match resize with
  | None -> ()
  | Some spec -> (
      match
        String.split_on_char ',' spec |> List.map int_of_string_opt
      with
      | [ Some id; Some size ] -> ignore (send ~version:2 (Resize { id; size }))
      | _ ->
          Format.eprintf "bad --resize spec %S (want JOB,SIZE)@." spec;
          exit 1));
  let fault kind spec =
    let op = Trace.Faults.kind_name kind in
    let target, index = parse_pair op spec in
    match int_of_string_opt index with
    | None ->
        Format.eprintf "bad %s index %S@." op index;
        exit 1
    | Some i -> (
        match Trace.Faults.target_of_name target i with
        | Ok target -> ignore (send (Fault { kind; target }))
        | Error m ->
            Format.eprintf "bad %s spec %S: %s@." op spec m;
            exit 1)
  in
  Option.iter (fault Trace.Faults.Fail) fail_t;
  Option.iter (fault Trace.Faults.Repair) repair_t;
  Option.iter (fun upto -> ignore (send (Advance { upto }))) advance;
  (if drain && not !failed then
     match send ~quiet:fingerprint Drain with
     | Some reply when fingerprint ->
         print_endline (Obs.Json.str reply "fingerprint")
     | _ -> ());
  if status then ignore (send Status);
  if stats then ignore (send Stats);
  if shutdown then ignore (send Shutdown);
  (match crash with
  | None -> ()
  | Some point ->
      (* No reply expected when the daemon dies on the spot. *)
      let req =
        Svc.Protocol.Crash { point = (if point = "now" then "" else point) }
      in
      (try
         let fd = connect c sock in
         write_all fd
           (Svc.Protocol.request_line
              { rid = None; at = None; version = 1; req });
         if point <> "now" then ignore (read_line_fd fd)
       with Unix.Unix_error _ | End_of_file -> ()));
  disconnect c;
  exit (if !failed then 1 else 0)

let cmd =
  let sock =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH")
  in
  let retries =
    Arg.(value & opt int 8 & info [ "retries" ] ~docv:"N"
           ~doc:"Retry budget per request: reconnects, resends (same \
                 request id, so the daemon deduplicates) with exponential \
                 backoff plus jitter, and honors overload retry-after \
                 hints.")
  in
  let at =
    Arg.(value & opt (some float) None & info [ "at" ] ~docv:"TIME"
           ~doc:"Logical timestamp for the request (logical-clock daemons; \
                 clamped up to the simulation clock).")
  in
  let rid =
    Arg.(value & opt (some string) None & info [ "rid" ] ~docv:"ID"
           ~doc:"Request id for duplicate suppression (default: generated).")
  in
  let ping = Arg.(value & flag & info [ "ping" ]) in
  let status = Arg.(value & flag & info [ "status" ]) in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the daemon's operational counters: uptime, ops \
                 applied, WAL sequence and segment counts, checkpoints on \
                 disk and written, queue depth, shed/disconnect tallies.")
  in
  let advance =
    Arg.(value & opt (some float) None & info [ "advance" ] ~docv:"TIME"
           ~doc:"Advance a logical-clock daemon's simulation to TIME.")
  in
  let submit =
    Arg.(value & opt (some string) None & info [ "submit" ] ~docv:"SPEC"
           ~doc:"Submit a job: SIZE,RUNTIME[,EST[,BW]].")
  in
  let min_size =
    Arg.(value & opt (some int) None & info [ "min" ] ~docv:"N"
           ~doc:"With --submit: moldable lower bound — the job accepts any \
                 granted size in [N, --max] and prefers SIZE. Sent as a v2 \
                 protocol request.")
  in
  let max_size =
    Arg.(value & opt (some int) None & info [ "max" ] ~docv:"N"
           ~doc:"With --submit: moldable upper bound (default: SIZE).")
  in
  let resize =
    Arg.(value & opt (some string) None & info [ "resize" ] ~docv:"JOB,SIZE"
           ~doc:"Mold a running moldable job to SIZE nodes in place. The \
                 reply reports the engine's verdict: resized (with the \
                 granted size) or refused (with the reason).")
  in
  let cancel =
    Arg.(value & opt (some int) None & info [ "cancel" ] ~docv:"ID")
  in
  let fail_t =
    Arg.(value & opt (some string) None & info [ "fail" ] ~docv:"TARGET,INDEX"
           ~doc:"Inject a failure: node,N leaf-cable,N l2-cable,N leaf,N \
                 l2,N or spine,N.")
  in
  let repair_t =
    Arg.(value & opt (some string) None
         & info [ "repair" ] ~docv:"TARGET,INDEX")
  in
  let play =
    Arg.(value & opt (some string) None & info [ "play" ] ~docv:"PRESET"
           ~doc:"Submit every job of a preset trace at its recorded arrival \
                 time, with deterministic request ids (play:TRACE:ID) — \
                 restartable mid-stream without double submission.")
  in
  let full = Arg.(value & flag & info [ "full" ]) in
  let jobs =
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N"
           ~doc:"With --play: only the first N jobs.")
  in
  let drain =
    Arg.(value & flag & info [ "drain" ]
           ~doc:"Run the simulation to completion and report its metrics \
                 fingerprint.")
  in
  let fingerprint =
    Arg.(value & flag & info [ "fingerprint" ]
           ~doc:"With --drain: print only the fingerprint digest.")
  in
  let shutdown = Arg.(value & flag & info [ "shutdown" ]) in
  let crash =
    Arg.(value & opt (some string) None & info [ "crash" ] ~docv:"POINT"
           ~doc:"Test op (daemon must run with --allow-crash): 'now' makes \
                 the daemon SIGKILL itself immediately; any other value arms \
                 that named crash point.")
  in
  let term =
    Term.(
      const run $ sock $ retries $ at $ rid $ ping $ status $ stats $ advance
      $ submit $ min_size $ max_size $ resize $ cancel $ fail_t $ repair_t
      $ play $ full $ jobs $ drain $ fingerprint $ shutdown $ crash)
  in
  Cmd.v
    (Cmd.info "jigsaw-client" ~version:"1.0.0"
       ~doc:"Client for jigsaw-daemon: submissions, cancellations, faults, \
             drains — with retry, backoff and duplicate-safe request ids")
    term

let () = exit (Cmd.eval cmd)
