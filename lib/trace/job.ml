type spec =
  | Rigid of int
  | Moldable of { min_size : int; max_size : int; pref : int }

type t = {
  id : int;
  size : int;
  spec : spec;
  runtime : float;
  est_runtime : float;
  arrival : float;
  bw_class : float;
}

let v ?(arrival = 0.0) ?(bw_class = 0.25) ?est_runtime ?spec ~id ~size ~runtime
    () =
  if size < 1 then invalid_arg "Job.v: size must be >= 1";
  if runtime <= 0.0 then invalid_arg "Job.v: runtime must be positive";
  if arrival < 0.0 then invalid_arg "Job.v: arrival must be >= 0";
  if bw_class <= 0.0 || bw_class > 1.0 then
    invalid_arg "Job.v: bw_class must be in (0, 1]";
  let est_runtime = Option.value est_runtime ~default:runtime in
  if est_runtime < runtime then
    invalid_arg "Job.v: est_runtime must be >= runtime";
  let spec = Option.value spec ~default:(Rigid size) in
  (match spec with
  | Rigid n -> if n <> size then invalid_arg "Job.v: Rigid spec must equal size"
  | Moldable { min_size; max_size; pref } ->
      if min_size < 1 then invalid_arg "Job.v: min_size must be >= 1";
      if pref <> size then invalid_arg "Job.v: Moldable pref must equal size";
      if not (min_size <= pref && pref <= max_size) then
        invalid_arg "Job.v: Moldable requires min_size <= pref <= max_size");
  { id; size; spec; runtime; est_runtime; arrival; bw_class }

let is_large j = j.size > 100
let is_moldable j = match j.spec with Rigid _ -> false | Moldable _ -> true

let min_size j =
  match j.spec with Rigid n -> n | Moldable { min_size; _ } -> min_size

let max_size j =
  match j.spec with Rigid n -> n | Moldable { max_size; _ } -> max_size

let at_size j n = { j with size = n }

let scale_runtime j ~granted base =
  (* Work-conserving molding: node-seconds are preserved, so the exact
     [granted = size] guard keeps rigid runs (and moldable runs granted
     their preferred size) bit-identical to the pre-molding simulator. *)
  if granted = j.size then base
  else base *. float_of_int j.size /. float_of_int granted

let pp ppf j =
  match j.spec with
  | Rigid _ ->
      Format.fprintf ppf "job %d: %d nodes, %.0fs, arrives %.0f" j.id j.size
        j.runtime j.arrival
  | Moldable { min_size; max_size; _ } ->
      Format.fprintf ppf "job %d: %d nodes [%d-%d], %.0fs, arrives %.0f" j.id
        j.size min_size max_size j.runtime j.arrival
