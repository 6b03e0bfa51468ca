open Fattree

(* LaaS's two-level conditions (equal nodes per leaf plus a remainder
   leaf over a common L2 set) are the ones Jigsaw shares — Algorithm 1's
   footnote: "As LaaS shares a few conditions with Jigsaw, its algorithm
   is similar up to here [the two-level search]".  So a job that fits in
   one pod is placed exactly as Jigsaw would place it, with no padding.
   Only allocations spanning pods go through LaaS's reduction to two
   levels, which makes leaves atomic and rounds the request up. *)
let probe ?budget st ~job ~size =
  if size <= 0 || State.total_free_nodes st < size then
    Jigsaw_core.Partition.Infeasible
  else
    match
      Jigsaw_core.Search.two_level st ~job ~size ~alloc_size:size ~demand:1.0
    with
    | Some p -> Jigsaw_core.Partition.Found p
    | None ->
        (* The two-level pass is unbudgeted, so only the padded
           three-level search can report a cut-off. *)
        Jigsaw_core.Jigsaw.probe_whole_leaves ?budget st ~job ~size
