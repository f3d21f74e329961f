(* Sim: event execution order, cancellation, run_until semantics. *)

open Desim

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_clock_starts_at_zero () =
  let sim = Sim.create () in
  check_float "now" 0.0 (Sim.now sim);
  check_int "pending" 0 (Sim.pending sim)

let test_events_fire_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sim) :: !log in
  let (_ : Sim.handle) = Sim.schedule_at sim ~time:2.0 (note "b") in
  let (_ : Sim.handle) = Sim.schedule_at sim ~time:1.0 (note "a") in
  let (_ : Sim.handle) = Sim.schedule_at sim ~time:3.0 (note "c") in
  Sim.run sim;
  Alcotest.(check (list (pair string (float 0.0))))
    "order and times"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.now sim)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  List.iter
    (fun tag ->
      ignore (Sim.schedule_at sim ~time:1.0 (fun () -> log := tag :: !log)))
    [ 1; 2; 3 ];
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log)

let test_relative_delay () =
  let sim = Sim.create () in
  let fired = ref 0.0 in
  let (_ : Sim.handle) =
    Sim.schedule sim ~delay:5.0 (fun () -> fired := Sim.now sim)
  in
  Sim.run sim;
  check_float "fired at" 5.0 !fired

let test_past_event_rejected () =
  let sim = Sim.create () in
  let (_ : Sim.handle) = Sim.schedule_at sim ~time:10.0 (fun () -> ()) in
  Sim.run sim;
  (try
     ignore (Sim.schedule_at sim ~time:5.0 (fun () -> ()));
     Alcotest.fail "expected Past_event"
   with Sim.Past_event { now; requested } ->
     check_float "now" 10.0 now;
     check_float "requested" 5.0 requested)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim ~time:1.0 (fun () -> fired := true) in
  check_int "pending before" 1 (Sim.pending sim);
  Sim.cancel sim h;
  check_int "pending after cancel" 0 (Sim.pending sim);
  check_bool "cancelled" true (Sim.cancelled sim h);
  Sim.run sim;
  check_bool "not fired" false !fired;
  (* Cancelling twice is a no-op. *)
  Sim.cancel sim h;
  check_int "pending stable" 0 (Sim.pending sim)

let test_events_scheduled_during_execution () =
  let sim = Sim.create () in
  let log = ref [] in
  let (_ : Sim.handle) =
    Sim.schedule_at sim ~time:1.0 (fun () ->
        log := "outer" :: !log;
        ignore
          (Sim.schedule sim ~delay:1.0 (fun () -> log := "inner" :: !log)))
  in
  Sim.run sim;
  Alcotest.(check (list string)) "chain" [ "outer"; "inner" ] (List.rev !log);
  check_float "final clock" 2.0 (Sim.now sim)

let test_run_until () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore (Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.run_until sim ~time:2.5;
  Alcotest.(check (list (float 0.0))) "fired" [ 1.0; 2.0 ] (List.rev !fired);
  check_float "clock advanced to bound" 2.5 (Sim.now sim);
  check_int "pending" 2 (Sim.pending sim);
  Sim.run sim;
  check_int "drained" 0 (Sim.pending sim)

let test_run_until_with_cancelled_head () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim ~time:1.0 (fun () -> ()) in
  let (_ : Sim.handle) =
    Sim.schedule_at sim ~time:5.0 (fun () -> fired := true)
  in
  Sim.cancel sim h;
  (* The cancelled event at t=1 must not cause the t=5 event to fire
     when running only until t=2. *)
  Sim.run_until sim ~time:2.0;
  check_bool "later event untouched" false !fired;
  check_float "clock" 2.0 (Sim.now sim)

(* Regression: a tombstone sitting at the heap head must be invisible
   to "what fires next".  The hot-path scheduler leaves cancelled
   events in place until they bubble up, so the step source-vs-heap
   merge has to purge first or it would compare against a time that
   will never fire. *)
let test_tombstone_at_head_invisible () =
  let sim = Sim.create () in
  let log = ref [] in
  let h1 = Sim.schedule_at sim ~time:1.0 (fun () -> log := 1.0 :: !log) in
  let (_ : Sim.handle) =
    Sim.schedule_at sim ~time:3.0 (fun () -> log := 3.0 :: !log)
  in
  Sim.cancel sim h1;
  (* The step source/heap merge must compare against the live head:
     a source event at t=2 fires before the t=3 heap event even though
     the (dead) heap head carried t=1. *)
  let source_next = [| 2.0 |] in
  Sim.set_source sim ~next:source_next
    ~fire:(fun () ->
      log := 2.0 :: !log;
      source_next.(0) <- Float.infinity);
  Sim.run sim;
  Alcotest.(check (list (float 0.0)))
    "source beat the live head; tombstone never fired" [ 2.0; 3.0 ]
    (List.rev !log);
  check_int "tombstones are not counted as fired" 2 (Sim.events_fired sim)

let test_tombstones_all_dead_reports_idle () =
  let sim = Sim.create () in
  let handles =
    List.init 5 (fun i ->
        Sim.schedule_at sim ~time:(float_of_int (i + 1)) (fun () -> ()))
  in
  List.iter (Sim.cancel sim) handles;
  check_bool "step finds nothing" false (Sim.step sim);
  check_int "nothing fired" 0 (Sim.events_fired sim)

let test_cancel_storm_with_compaction_keeps_order () =
  (* Enough cancellations to cross the compaction threshold, with the
     head repeatedly among the dead: survivors still fire in (time,
     seq) order and the fired counter sees only them. *)
  let sim = Sim.create () in
  let log = ref [] in
  let handles =
    Array.init 256 (fun i ->
        let t = float_of_int (i mod 16) in
        Sim.schedule_at sim ~time:t (fun () -> log := (t, i) :: !log))
  in
  Array.iteri
    (fun i h -> if i mod 4 <> 3 then Sim.cancel sim h)
    handles;
  Sim.run sim;
  let fired = List.rev !log in
  check_int "only survivors fired" 64 (List.length fired);
  check_int "fired counter matches" 64 (Sim.events_fired sim);
  let expect =
    List.filter (fun i -> i mod 4 = 3) (List.init 256 Fun.id)
    |> List.map (fun i -> (float_of_int (i mod 16), i))
    |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
  in
  check_bool "survivor order is (time, insertion) sorted" true (fired = expect)

let test_events_fired_counter () =
  let sim = Sim.create () in
  for i = 1 to 5 do
    ignore (Sim.schedule_at sim ~time:(float_of_int i) (fun () -> ()))
  done;
  Sim.run sim;
  check_int "fired" 5 (Sim.events_fired sim)

let test_step () =
  let sim = Sim.create () in
  let (_ : Sim.handle) = Sim.schedule_at sim ~time:1.0 (fun () -> ()) in
  check_bool "step true" true (Sim.step sim);
  check_bool "step false when empty" false (Sim.step sim)

let test_on_event_hook () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.set_on_event sim (fun time -> seen := time :: !seen);
  List.iter
    (fun t -> ignore (Sim.schedule_at sim ~time:t (fun () -> ())))
    [ 2.0; 1.0; 3.0 ];
  Sim.run sim;
  Alcotest.(check (list (float 0.0)))
    "hook saw every event in order" [ 1.0; 2.0; 3.0 ] (List.rev !seen);
  (* Clearing stops further callbacks. *)
  Sim.clear_on_event sim;
  let (_ : Sim.handle) = Sim.schedule_at sim ~time:4.0 (fun () -> ()) in
  Sim.run sim;
  check_int "no extra callbacks" 3 (List.length !seen)

let test_run_profiled () =
  let sim = Sim.create () in
  for i = 1 to 100 do
    ignore (Sim.schedule_at sim ~time:(float_of_int i) (fun () -> ()))
  done;
  let profile = Sim.run_profiled sim in
  check_int "fired" 100 profile.Sim.fired;
  check_bool "wall clock non-negative" true (profile.Sim.wall_seconds >= 0.0);
  check_bool "rate non-negative" true (profile.Sim.events_per_second >= 0.0)

let suite =
  [
    Alcotest.test_case "clock starts at zero" `Quick test_clock_starts_at_zero;
    Alcotest.test_case "events fire in order" `Quick test_events_fire_in_order;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "relative delay" `Quick test_relative_delay;
    Alcotest.test_case "past event rejected" `Quick test_past_event_rejected;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "schedule during execution" `Quick
      test_events_scheduled_during_execution;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "run_until skips cancelled head" `Quick
      test_run_until_with_cancelled_head;
    Alcotest.test_case "tombstone at head is invisible" `Quick
      test_tombstone_at_head_invisible;
    Alcotest.test_case "all-dead heap reports idle" `Quick
      test_tombstones_all_dead_reports_idle;
    Alcotest.test_case "cancel storm + compaction keeps order" `Quick
      test_cancel_storm_with_compaction_keeps_order;
    Alcotest.test_case "events_fired counter" `Quick test_events_fired_counter;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "on_event hook" `Quick test_on_event_hook;
    Alcotest.test_case "run_profiled" `Quick test_run_profiled;
  ]
