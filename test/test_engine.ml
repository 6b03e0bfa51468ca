(* Tests for the discrete-event engine. *)

open Sim

(* Events are plain values; a test's handler records them. *)
let engine ?(priority = fun _ -> 0) () = Engine.create ~priority

let run_log e =
  let log = ref [] in
  Engine.run e (fun ev -> log := ev :: !log);
  List.rev !log

let test_time_order () =
  let e = engine () in
  List.iter (fun t -> Engine.schedule e ~time:(float_of_int t) t) [ 5; 1; 3 ];
  Alcotest.(check (list int)) "in time order" [ 1; 3; 5 ] (run_log e);
  Alcotest.(check (float 1e-9)) "clock at last event" 5.0 (Engine.now e)

let test_priority_ties () =
  let priority = function "completion" -> 0 | "arrival" -> 1 | _ -> 2 in
  let e = engine ~priority () in
  List.iter
    (fun ev -> Engine.schedule e ~time:2.0 ev)
    [ "arrival"; "completion"; "pass" ];
  Alcotest.(check (list string))
    "priority order at equal time"
    [ "completion"; "arrival"; "pass" ]
    (run_log e)

let test_fifo_within_priority () =
  let e = engine () in
  for i = 0 to 4 do
    Engine.schedule e ~time:1.0 i
  done;
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3; 4 ] (run_log e)

let test_handlers_schedule_more () =
  let e = engine () in
  let count = ref 0 in
  let tick () =
    incr count;
    if !count < 10 then Engine.schedule e ~time:(Engine.now e +. 1.0) ()
  in
  Engine.schedule e ~time:0.0 ();
  Engine.run e tick;
  Alcotest.(check int) "chained events" 10 !count;
  Alcotest.(check (float 1e-9)) "clock" 9.0 (Engine.now e)

let test_no_past_scheduling () =
  let e = engine () in
  Engine.schedule e ~time:5.0 ();
  Engine.run e (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule: time 3 is before now (5)")
        (fun () -> Engine.schedule e ~time:3.0 ()))

let test_run_until () =
  let e = engine () in
  let log = ref [] in
  List.iter (fun t -> Engine.schedule e ~time:t t) [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.run_until e (fun t -> log := t :: !log) 2.5;
  Alcotest.(check (list (float 1e-9))) "only <= horizon" [ 1.0; 2.0 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 2.5 (Engine.now e);
  Alcotest.(check int) "rest pending" 2 (Engine.pending e)

let test_step () =
  let e = engine () in
  let ran = ref 0 in
  let handle () = incr ran in
  Alcotest.(check bool) "empty step" false (Engine.step e handle);
  Engine.schedule e ~time:1.0 ();
  Alcotest.(check bool) "one step" true (Engine.step e handle);
  Alcotest.(check bool) "drained" false (Engine.step e handle);
  Alcotest.(check int) "handler ran once" 1 !ran;
  Alcotest.(check int) "steps counted" 1 (Engine.steps e)

let prop_random_schedule_ordered =
  QCheck2.Test.make ~name:"random event times execute sorted" ~count:150
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_inclusive 1000.0))
    (fun times ->
      let e = engine () in
      List.iter (fun t -> Engine.schedule e ~time:t t) times;
      run_log e = List.stable_sort compare times)

let suite =
  [
    Alcotest.test_case "events run in time order" `Quick test_time_order;
    QCheck_alcotest.to_alcotest prop_random_schedule_ordered;
    Alcotest.test_case "priorities break ties" `Quick test_priority_ties;
    Alcotest.test_case "FIFO within a priority" `Quick test_fifo_within_priority;
    Alcotest.test_case "handlers schedule more events" `Quick test_handlers_schedule_more;
    Alcotest.test_case "scheduling in the past rejected" `Quick test_no_past_scheduling;
    Alcotest.test_case "run_until stops at horizon" `Quick test_run_until;
    Alcotest.test_case "step" `Quick test_step;
  ]
