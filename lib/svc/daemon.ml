(* Scheduler-as-a-service: a single-threaded reactor over
   [Unix.select].

   One Unix-domain socket, line-delimited JSON ([Protocol]), no threads,
   no new dependencies.  The event loop multiplexes accepting clients,
   reading request lines, executing ops against [Core], and draining
   reply buffers; every state-mutating request follows the one ordering
   that makes crash recovery sound:

     admit (fallible, reads only op-determined state)
     -> WAL append + fsync          (the point of no return)
     -> apply (infallible)
     -> ack

   A [kill -9] anywhere in that sequence loses at most un-acked work:
   before the fsync the entry vanishes with the process (client never
   got an ack, retries); after it, recovery replays the entry
   (duplicate-suppressed by rid).

   Degradation is graceful and typed: malformed lines get error replies
   (never a crash — [Protocol.request_of_line] is total), a full ingest
   queue sheds with [overloaded] + a retry-after hint, clients that stop
   draining replies get disconnected, and an over-long line without a
   newline is rejected rather than buffered without bound. *)

let num_i i = Obs.Json.Num (float_of_int i)

type opts = {
  socket : string;
  dir : string;
  params : Core.params option;
      (** Required for a fresh state dir; cross-checked otherwise. *)
  time_scale : float option;
      (** [Some s]: wall-clock mode, [s] simulated seconds per wall
          second.  [None]: logical time — the clock only moves on op
          stamps and [advance]. *)
  max_clients : int;
  max_queue : int;  (** Ingest queue bound; beyond it, requests shed. *)
  max_line : int;  (** Request line length bound (bytes). *)
  client_timeout : float;
      (** Wall seconds a client may sit on an undrained reply buffer. *)
  ckpt_every_ops : int;
  ckpt_every_s : float;
  retain : int;  (** Checkpoints kept (>= 1); older ones pruned + WAL GC'd. *)
  allow_crash_op : bool;  (** Honor the [crash] test op. *)
  log : string -> unit;
}

let default_opts ~socket ~dir =
  {
    socket;
    dir;
    params = None;
    time_scale = None;
    max_clients = 32;
    max_queue = 256;
    max_line = 65536;
    client_timeout = 10.0;
    ckpt_every_ops = 64;
    ckpt_every_s = 5.0;
    retain = 2;
    allow_crash_op = false;
    log = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let ckpt_name = Wal.numbered_name "ckpt"

(* Newest first. *)
let checkpoints dir = List.rev (Wal.numbered_files "ckpt" dir)

exception Recovery_failed of string

(* Rebuild the exact pre-crash state from [dir]: newest usable
   checkpoint (corrupt ones are skipped with a note — an older
   checkpoint plus a longer replay gives the same state) + the WAL
   suffix past its [x_svc_seq].  Entries at or below it are scanned for
   request-id dedup only.  Returns the live state, a fresh WAL appender
   (recovery never appends to old segments), and a report. *)
let recover ?sink ?prof ?params ~dir () =
  let report = ref [] in
  let note fmt = Printf.ksprintf (fun m -> report := m :: !report) fmt in
  let fresh p =
    match Core.create ?sink ?prof p with
    | Error m -> Error m
    | Ok core ->
        let config = Core.params_to_fields (Core.params core) in
        Ok (core, Wal.create ~dir ~config ~start_seq:0)
  in
  (* Params as a live state reads them back: older daemons recorded names
     as typed ("10" for the scenario "10%"), so only canonical forms
     compare. *)
  let canonical p = Result.map Core.params (Core.create p) in
  let result =
    match Wal.read_dir ~dir with
    | Error m -> Error ("WAL: " ^ m)
    | Ok None -> (
        match params with
        | None -> Error "state dir holds no WAL and no configuration was given"
        | Some p ->
            note "fresh state directory";
            fresh p)
    | Ok (Some r) -> (
        match Result.bind (Core.params_of_fields r.config) canonical with
        | Error m -> Error ("WAL header: " ^ m)
        | Ok wal_params -> (
            match params with
            | Some p when canonical p <> Ok wal_params ->
                Error
                  "configuration disagrees with the state directory's WAL \
                   (start with no explicit config to adopt the recorded one)"
            | _ -> (
                if r.dropped > 0 then
                  note "dropped %d torn (unacknowledged) WAL line%s" r.dropped
                    (if r.dropped = 1 then "" else "s");
                let rec pick = function
                  | [] ->
                      note "no usable checkpoint: full WAL replay";
                      Core.create ?sink ?prof wal_params
                  | (seq, path) :: rest -> (
                      match Core.of_checkpoint ?sink ?prof ~path () with
                      | Ok core when Core.last_seq core <> seq ->
                          note
                            "checkpoint %s: x_svc_seq %d disagrees with file \
                             name; skipping"
                            (Filename.basename path) (Core.last_seq core);
                          pick rest
                      | Ok core when Core.params core <> wal_params ->
                          note
                            "checkpoint %s: config disagrees with WAL; \
                             skipping"
                            (Filename.basename path);
                          pick rest
                      | Ok core ->
                          note "restored checkpoint at seq %d" seq;
                          Ok core
                      | Error m ->
                          note
                            "checkpoint %s unusable (%s); falling back to an \
                             older one"
                            (Filename.basename path) m;
                          pick rest)
                in
                match pick (checkpoints dir) with
                | Error m -> Error m
                | Ok core -> (
                    let last = Core.last_seq core in
                    if last + 1 < r.first_seq then
                      Error
                        (Printf.sprintf
                           "unrecoverable: checkpoint stops at seq %d but the \
                            oldest retained WAL entry is %d"
                           last r.first_seq)
                    else
                      match
                        let replayed = ref 0 in
                        List.iter
                          (fun (e : Wal.entry) ->
                            if e.seq <= last then (
                              match Core.op_of_fields e.fields with
                              | Ok (_, Some rid, _) ->
                                  Core.note_rid core rid e.seq
                              | Ok (_, None, _) | Error _ -> ())
                            else
                              match Core.apply_entry core e with
                              | Ok _ -> incr replayed
                              | Error m -> raise (Recovery_failed m))
                          r.entries;
                        !replayed
                      with
                      | exception Recovery_failed m -> Error m
                      | exception Failure m -> Error m
                      | replayed ->
                          note "replayed %d WAL entr%s" replayed
                            (if replayed = 1 then "y" else "ies");
                          Ok
                            ( core,
                              Wal.create ~dir
                                ~config:(Core.params_to_fields wal_params)
                                ~start_seq:r.wal_next_seq )))))
  in
  match result with
  | Error m -> Error m
  | Ok (core, wal) -> Ok (core, wal, List.rev !report)

(* ------------------------------------------------------------------ *)
(* Reactor                                                             *)
(* ------------------------------------------------------------------ *)

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable out : string;  (* undrained reply bytes *)
  mutable last_io : float;
  mutable closing : bool;  (* close once [out] drains *)
}

type state = {
  opts : opts;
  core : Core.t;
  wal : Wal.t;
  prof : Obs.Prof.t;
  listen : Unix.file_descr;
  mutable clients : client list;
  queue : (client * string) Queue.t;
  mutable last_ckpt_seq : int;
  mutable last_ckpt_wall : float;
  mutable ops_since_ckpt : int;
  mutable stopping : bool;
  mutable sim_base : float;  (* wall mode: sim clock at startup *)
  mutable wall_base : float;
}

let send st c line =
  if not c.closing then begin
    c.out <- c.out ^ line;
    if String.length c.out > 1 lsl 20 then begin
      (* A megabyte of undrained replies: the peer is gone in spirit. *)
      Obs.Prof.incr st.prof "svc/slow_disconnects";
      c.closing <- true
    end
  end

let drop st c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  st.clients <- List.filter (fun c' -> c' != c) st.clients

(* -- checkpointing -- *)

(* [Core.checkpoint], counting the rows it encoded and the rows it
   copied from the checkpoint before. *)
let checkpoint prof core ~path =
  let written = Core.checkpoint core ~path in
  if written then
    List.iter
      (fun (_, (encoded, reused)) ->
        Obs.Prof.add prof "svc/ckpt_rows_encoded" encoded;
        Obs.Prof.add prof "svc/ckpt_rows_reused" reused)
      (Core.checkpoint_rows core);
  written

let do_checkpoint st =
  let seq = Core.last_seq st.core in
  if Core.fingerprint st.core = None && seq > st.last_ckpt_seq then begin
    let path = Filename.concat st.opts.dir (ckpt_name seq) in
    if checkpoint st.prof st.core ~path then begin
      st.last_ckpt_seq <- seq;
      Wal.rotate st.wal;
      Obs.Prof.incr st.prof "svc/checkpoints";
      st.opts.log (Printf.sprintf "checkpoint at seq %d" seq);
      (* Prune to [retain] checkpoints, then drop WAL segments that only
         feed checkpoints no longer on disk. *)
      let cks = checkpoints st.opts.dir in
      let rec split i = function
        | [] -> ([], [])
        | x :: rest ->
            if i < st.opts.retain then
              let keep, drop = split (i + 1) rest in
              (x :: keep, drop)
            else ([], x :: rest)
      in
      let keep, drop = split 0 cks in
      List.iter
        (fun (_, p) -> try Sys.remove p with Sys_error _ -> ())
        drop;
      (match List.rev keep with
      | (oldest, _) :: _ ->
          ignore (Wal.gc ~dir:st.opts.dir ~keep_from:(oldest + 1))
      | [] -> ())
    end
  end;
  st.ops_since_ckpt <- 0;
  st.last_ckpt_wall <- Unix.gettimeofday ()

let maybe_checkpoint st =
  if
    st.ops_since_ckpt >= st.opts.ckpt_every_ops
    || Unix.gettimeofday () -. st.last_ckpt_wall >= st.opts.ckpt_every_s
       && st.ops_since_ckpt > 0
  then do_checkpoint st

(* -- time -- *)

let wall_sim_now st =
  match st.opts.time_scale with
  | None -> Core.now st.core
  | Some scale ->
      Float.max (Core.now st.core)
        (st.sim_base +. ((Unix.gettimeofday () -. st.wall_base) *. scale))

let stamp_of st at =
  let now = Core.now st.core in
  match st.opts.time_scale with
  | None -> ( match at with Some a -> Float.max a now | None -> now)
  | Some _ -> wall_sim_now st

(* -- request execution -- *)

let exec st c line =
  Obs.Prof.incr st.prof "svc/requests";
  match Protocol.request_of_line line with
  | Error (code, msg) ->
      Obs.Prof.incr st.prof "svc/malformed";
      send st c (Protocol.error_reply ~rid:None code msg)
  | Ok { rid; at; version = _; req } -> (
      let invalid msg = send st c (Protocol.error_reply ~rid Protocol.Invalid msg) in
      match req with
      | Protocol.Ping ->
          send st c
            (Protocol.ok_reply
               ~fields:[ ("clock", Obs.Json.Num (Core.now st.core)) ]
               rid)
      | Protocol.Status ->
          let fields =
            Core.status st.core
            @ [
                ("queue", num_i (Queue.length st.queue));
                ("clients", num_i (List.length st.clients));
                ("wal_next", num_i (Wal.next_seq st.wal));
                ("requests", num_i (Obs.Prof.counter st.prof "svc/requests"));
                ("shed", num_i (Obs.Prof.counter st.prof "svc/shed"));
                ("malformed", num_i (Obs.Prof.counter st.prof "svc/malformed"));
              ]
          in
          send st c (Protocol.ok_reply ~fields rid)
      | Protocol.Stats ->
          (* Operational introspection: everything here is either a
             [Prof] counter the reactor already maintains or read off
             the live state, so the op is read-only and un-journaled —
             safe to poll from monitoring at any rate. *)
          let wal_segments =
            List.length (Wal.numbered_files "wal" st.opts.dir)
          in
          let counter = Obs.Prof.counter st.prof in
          let fields =
            [
              ("uptime_s", Obs.Json.Num (Unix.gettimeofday () -. st.wall_base));
              ("clock", Obs.Json.Num (Core.now st.core));
              ("applied", num_i (counter "svc/applied"));
              ("requests", num_i (counter "svc/requests"));
              ("duplicates", num_i (counter "svc/duplicates"));
              ("wal_next", num_i (Wal.next_seq st.wal));
              ("wal_segment_start", num_i (Wal.segment_start st.wal));
              ("wal_segments", num_i wal_segments);
              ("checkpoints", num_i (List.length (checkpoints st.opts.dir)));
              ("checkpoints_written", num_i (counter "svc/checkpoints"));
              ("ckpt_rows_encoded", num_i (counter "svc/ckpt_rows_encoded"));
              ("ckpt_rows_reused", num_i (counter "svc/ckpt_rows_reused"));
              ("last_ckpt_seq", num_i st.last_ckpt_seq);
              ("queue", num_i (Queue.length st.queue));
              ("clients", num_i (List.length st.clients));
              ("shed", num_i (counter "svc/shed"));
              ("malformed", num_i (counter "svc/malformed"));
              ("slow_disconnects", num_i (counter "svc/slow_disconnects"));
            ]
          in
          send st c (Protocol.ok_reply ~fields rid)
      | Protocol.Advance { upto } -> (
          match st.opts.time_scale with
          | Some _ -> invalid "advance is for logical-clock daemons"
          | None ->
              if Core.fingerprint st.core <> None then invalid "already drained"
              else begin
                Core.advance st.core upto;
                send st c
                  (Protocol.ok_reply
                     ~fields:[ ("clock", Obs.Json.Num (Core.now st.core)) ]
                     rid)
              end)
      | Protocol.Shutdown ->
          st.stopping <- true;
          send st c (Protocol.ok_reply rid)
      | Protocol.Crash { point } ->
          if not st.opts.allow_crash_op then
            invalid "crash op disabled (start the daemon with --allow-crash)"
          else if point = "" then Crash.die ()
          else begin
            (* Arm a named crash point in the live process — the test
               suite's remote trigger for fault-injection runs. *)
            Unix.putenv "JIGSAW_SVC_CRASH" point;
            send st c (Protocol.ok_reply rid)
          end
      | Protocol.Submit _ | Protocol.Cancel _ | Protocol.Resize _
      | Protocol.Fault _ | Protocol.Drain -> (
          (* Journaled ops. *)
          match rid with
          | Some r when Core.find_rid st.core r <> None ->
              let seq = Option.get (Core.find_rid st.core r) in
              Obs.Prof.incr st.prof "svc/duplicates";
              let extra =
                match (req, Core.fingerprint st.core) with
                | Protocol.Drain, Some fp -> [ ("fingerprint", Obs.Json.Str fp) ]
                | _ -> []
              in
              send st c
                (Protocol.ok_reply
                   ~fields:
                     ([ ("seq", num_i seq); ("duplicate", Obs.Json.Num 1.0) ]
                     @ extra)
                   rid)
          | _ -> (
              match (req, Core.fingerprint st.core) with
              | Protocol.Drain, Some fp ->
                  (* Idempotent even without a rid. *)
                  send st c
                    (Protocol.ok_reply
                       ~fields:
                         [
                           ("fingerprint", Obs.Json.Str fp);
                           ("duplicate", Obs.Json.Num 1.0);
                         ]
                       rid)
              | _ -> (
                  let stamp = stamp_of st at in
                  match Core.admit st.core ~stamp req with
                  | Error m -> invalid m
                  | Ok op ->
                      let seq =
                        Wal.append st.wal (Core.fields_of_op ~stamp ~rid op)
                      in
                      let fields =
                        Obs.Prof.time st.prof "svc/apply" (fun () ->
                            Core.apply st.core ~seq ~rid ~stamp op)
                      in
                      Obs.Prof.incr st.prof "svc/applied";
                      st.ops_since_ckpt <- st.ops_since_ckpt + 1;
                      send st c
                        (Protocol.ok_reply
                           ~fields:
                             (fields
                             @ [
                                 ("seq", num_i seq);
                                 ("at", Obs.Json.Num stamp);
                               ])
                           rid);
                      maybe_checkpoint st))))

(* -- socket plumbing -- *)

let ingest st c =
  let bytes = Bytes.create 4096 in
  match Unix.read c.fd bytes 0 4096 with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop st c
  | 0 -> if c.out = "" then drop st c else c.closing <- true
  | n ->
      c.last_io <- Unix.gettimeofday ();
      Buffer.add_subbytes c.inbuf bytes 0 n;
      let data = Buffer.contents c.inbuf in
      let len = String.length data in
      let pos = ref 0 in
      (try
         while true do
           let nl = String.index_from data !pos '\n' in
           let line = String.sub data !pos (nl - !pos) in
           pos := nl + 1;
           if line <> "" then
             if Queue.length st.queue >= st.opts.max_queue then begin
               Obs.Prof.incr st.prof "svc/shed";
               send st c
                 (Protocol.error_reply ~retry_after:0.1 ~rid:None
                    Protocol.Overloaded "ingest queue full")
             end
             else Queue.add (c, line) st.queue
         done
       with Not_found -> ());
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf data !pos (len - !pos);
      if Buffer.length c.inbuf > st.opts.max_line then begin
        Buffer.clear c.inbuf;
        send st c
          (Protocol.error_reply ~rid:None Protocol.Parse_failed
             "request line too long");
        c.closing <- true
      end

let flush_out st c =
  if c.out <> "" then begin
    match Unix.write_substring c.fd c.out 0 (String.length c.out) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> drop st c
    | n ->
        if n > 0 then c.last_io <- Unix.gettimeofday ();
        c.out <- String.sub c.out n (String.length c.out - n);
        if c.out = "" && c.closing then drop st c
  end
  else if c.closing then drop st c

let accept_clients st =
  let rec go () =
    match Unix.accept ~cloexec:true st.listen with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | fd, _ ->
        Unix.set_nonblock fd;
        let c =
          {
            fd;
            inbuf = Buffer.create 256;
            out = "";
            last_io = Unix.gettimeofday ();
            closing = false;
          }
        in
        if List.length st.clients >= st.opts.max_clients then begin
          Obs.Prof.incr st.prof "svc/shed";
          c.out <-
            Protocol.error_reply ~retry_after:0.5 ~rid:None Protocol.Overloaded
              "too many clients";
          c.closing <- true
        end;
        st.clients <- c :: st.clients;
        go ()
  in
  go ()

let reap_slow st =
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if c.out <> "" && now -. c.last_io > st.opts.client_timeout then begin
        Obs.Prof.incr st.prof "svc/slow_disconnects";
        drop st c
      end)
    st.clients

(* -- main loop -- *)

let run ?(prof = Obs.Prof.create ()) opts =
  if not (Sys.file_exists opts.dir) then Unix.mkdir opts.dir 0o755;
  match recover ~prof ?params:opts.params ~dir:opts.dir () with
  | Error m -> Error m
  | Ok (core, wal, report) ->
      List.iter (fun m -> opts.log ("recovery: " ^ m)) report;
      (* A replayed suffix means the last run died between checkpoints:
         re-anchor now so the next crash replays less. *)
      if Core.last_seq core >= 0 then begin
        let seqs = List.map fst (checkpoints opts.dir) in
        if not (List.mem (Core.last_seq core) seqs) then begin
          let path = Filename.concat opts.dir (ckpt_name (Core.last_seq core)) in
          if checkpoint prof core ~path then Wal.rotate wal
        end
      end;
      (try Unix.unlink opts.socket with Unix.Unix_error _ -> ());
      let listen = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Unix.bind listen (ADDR_UNIX opts.socket);
      Unix.listen listen 16;
      Unix.set_nonblock listen;
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      let st =
        {
          opts;
          core;
          wal;
          prof;
          listen;
          clients = [];
          queue = Queue.create ();
          last_ckpt_seq = Core.last_seq core;
          last_ckpt_wall = Unix.gettimeofday ();
          ops_since_ckpt = 0;
          stopping = false;
          sim_base = Core.now core;
          wall_base = Unix.gettimeofday ();
        }
      in
      let stop_sig = ref false in
      let install s =
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop_sig := true))
        with Invalid_argument _ -> ()
      in
      install Sys.sigterm;
      install Sys.sigint;
      opts.log
        (Printf.sprintf "listening on %s (seq %d, clock %g)" opts.socket
           (Core.last_seq core) (Core.now core));
      while not (st.stopping || !stop_sig) do
        (* Wall-clock mode: the simulation tracks real time even with no
           requests in flight. *)
        (if opts.time_scale <> None && Core.fingerprint core = None then
           let t = wall_sim_now st in
           if t > Core.now core then Core.advance core t);
        let rfds = st.listen :: List.map (fun c -> c.fd) st.clients in
        let wfds =
          List.filter_map
            (fun c -> if c.out <> "" then Some c.fd else None)
            st.clients
        in
        let timeout =
          if (not (Queue.is_empty st.queue)) || opts.time_scale <> None then 0.05
          else
            Float.max 0.05
              (Float.min 1.0
                 (st.opts.ckpt_every_s
                 -. (Unix.gettimeofday () -. st.last_ckpt_wall)))
        in
        (match Unix.select rfds wfds [] timeout with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | readable, writable, _ ->
            if List.mem st.listen readable then accept_clients st;
            List.iter
              (fun c -> if List.mem c.fd readable then ingest st c)
              st.clients;
            List.iter
              (fun c -> if List.mem c.fd writable then flush_out st c)
              st.clients);
        Obs.Prof.sample st.prof "svc/queue_depth"
          (float_of_int (Queue.length st.queue));
        (* Bounded batch per iteration so slow-client reaping and
           checkpoint deadlines stay responsive under a flood. *)
        let budget = ref 256 in
        while (not (Queue.is_empty st.queue)) && !budget > 0 && not st.stopping
        do
          decr budget;
          let c, line = Queue.pop st.queue in
          if not c.closing then exec st c line
        done;
        List.iter (fun c -> flush_out st c) st.clients;
        reap_slow st;
        maybe_checkpoint st
      done;
      opts.log
        (if !stop_sig then "signal: checkpointing and shutting down"
         else "shutdown requested");
      (* Best-effort final reply flush, then make the state durable. *)
      List.iter (fun c -> flush_out st c) st.clients;
      do_checkpoint st;
      Wal.close st.wal;
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        st.clients;
      (try Unix.close st.listen with Unix.Unix_error _ -> ());
      (try Unix.unlink opts.socket with Unix.Unix_error _ -> ());
      Ok ()
