(* jigsaw-trace-gen: generate preset traces as Standard Workload Format
   files, so experiments can be rerun from fixed inputs (or fed to other
   simulators).

   Example:
     jigsaw-trace-gen --trace Thunder --out thunder.swf
     jigsaw-trace-gen --all --dir traces/ --full *)

open Cmdliner

let generate preset all out dir full scale analyze =
  Cli_common.check_scale_full ~action:"exports" scale full;
  let entries =
    if all then
      if scale then Trace.Presets.scale_all () else Trace.Presets.all ~full
    else
      match preset with
      | None ->
          Format.eprintf "one of --trace or --all is required@.";
          exit 1
      | Some name -> (
          match Cli_common.preset_entry ~full name with
          | Ok e -> [ e ]
          | Error m ->
              Format.eprintf "%s@." m;
              exit 1)
  in
  List.iter
    (fun (e : Trace.Presets.entry) ->
      let w = e.workload in
      if analyze then
        Format.printf "--- %s ---@.%a@.@." w.name Trace.Analysis.pp
          (Trace.Analysis.analyze w)
      else begin
        let path =
          match (out, all) with
          | Some p, false -> p
          | _ ->
              let base = String.lowercase_ascii w.name ^ ".swf" in
              Filename.concat dir base
        in
        Trace.Swf.save w path;
        Format.printf "%s: %d jobs -> %s@." w.name (Trace.Workload.num_jobs w) path
      end)
    entries

let cmd =
  let preset =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"NAME"
           ~doc:"Preset trace to export (see Table 1).")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Export every preset trace.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Output file (single-trace mode).")
  in
  let dir =
    Arg.(value & opt dir "." & info [ "dir" ] ~docv:"DIR"
           ~doc:"Output directory (with --all).")
  in
  let full = Cli_common.full_arg ~doc:"Paper-scale job counts." in
  let scale =
    Cli_common.scale_arg
      ~doc:"Export the radix-48 scale tier (names end in @48; with \
            --all, exports all nine scale traces). Incompatible with \
            --full."
  in
  let analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Print distribution summaries instead of writing SWF files.")
  in
  let term =
    Term.(const generate $ preset $ all $ out $ dir $ full $ scale $ analyze)
  in
  Cmd.v
    (Cmd.info "jigsaw-trace-gen" ~version:"1.0.0"
       ~doc:"Export the evaluation job traces as SWF files")
    term

let () = exit (Cmd.eval cmd)
