type 'a event = { time : float; priority : int; seq : int; ev : 'a }

type 'a t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : 'a event Heap.t;
  mutable steps : int;
  priority : 'a -> int;
}

let cmp_event a b =
  let c = compare a.time b.time in
  if c <> 0 then c
  else begin
    let c = compare a.priority b.priority in
    if c <> 0 then c else compare a.seq b.seq
  end

let restore ~priority ~clock ~steps ~next_seq =
  if clock < 0.0 then invalid_arg "Engine.restore: negative clock";
  if steps < 0 || next_seq < 0 then
    invalid_arg "Engine.restore: negative counter";
  { clock; next_seq; queue = Heap.create ~cmp:cmp_event; steps; priority }

let create ~priority = restore ~priority ~clock:0.0 ~steps:0 ~next_seq:0
let now t = t.clock
let steps t = t.steps
let next_seq t = t.next_seq

let schedule t ~time ev =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: time %g is before now (%g)" time t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.add t.queue { time; priority = t.priority ev; seq; ev }

let pending t = Heap.length t.queue

let pending_events t =
  let evs = ref [] in
  Heap.iter_unordered t.queue ~f:(fun e ->
      evs := (e.time, e.seq, e.ev) :: !evs);
  List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2) !evs

let schedule_restored t ~time ~seq ev =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_restored: time %g is before now (%g)"
         time t.clock);
  if seq >= t.next_seq then
    invalid_arg
      (Printf.sprintf "Engine.schedule_restored: seq %d >= next_seq %d" seq
         t.next_seq);
  Heap.add t.queue { time; priority = t.priority ev; seq; ev }

let step t handle =
  match Heap.pop_min t.queue with
  | None -> false
  | Some e ->
      t.clock <- e.time;
      t.steps <- t.steps + 1;
      handle e.ev;
      true

let run t handle = while step t handle do () done

let run_until t handle horizon =
  let continue = ref true in
  while !continue do
    match Heap.peek_min t.queue with
    | Some e when e.time <= horizon -> ignore (step t handle)
    | _ -> continue := false
  done;
  if t.clock < horizon then t.clock <- horizon
