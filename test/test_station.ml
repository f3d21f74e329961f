(* Station: FIFO service, latency accounting, speed, failure. *)

open Desim

let check_int = Alcotest.(check int)
let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)

(* A station whose sink records every completion, newest first, as
   (tag, latency, completion time). *)
let station ?(speed = 1.0) sim =
  let st = Station.create sim ~name:"s" ~speed in
  let finished = ref [] in
  Station.set_sink st (fun ~tag ~latency ->
      finished := (tag, latency, Sim.now sim) :: !finished);
  (st, finished)

let latencies finished = List.rev_map (fun (_, l, _) -> l) !finished

let test_single_job_latency () =
  let sim = Sim.create () in
  let st, finished = station ~speed:2.0 sim in
  Station.submit_tagged st ~demand:4.0 ~tag:0;
  Sim.run sim;
  (* demand 4 at speed 2 = 2 seconds of pure service, no queueing. *)
  Alcotest.(check (list (float 1e-9))) "latency" [ 2.0 ] (latencies finished);
  check_int "completed" 1 (Station.completed st);
  check_float 1e-9 "busy time" 2.0 (Station.busy_time st)

let test_fifo_queueing_latencies () =
  let sim = Sim.create () in
  let st, finished = station sim in
  (* Three unit jobs submitted at t=0: latencies 1, 2, 3. *)
  for i = 0 to 2 do
    Station.submit_tagged st ~demand:1.0 ~tag:i
  done;
  check_int "queue behind server" 2 (Station.queue_length st);
  check_bool "in service" true (Station.in_service st);
  check_float 1e-9 "backlog" 3.0 (Station.backlog_demand st);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9)))
    "latencies" [ 1.0; 2.0; 3.0 ] (latencies finished)

let test_arrival_during_service () =
  let sim = Sim.create () in
  let st, finished = station sim in
  Station.submit_tagged st ~demand:2.0 ~tag:0;
  let (_ : Sim.handle) =
    Sim.schedule_at sim ~time:1.0 (fun () ->
        Station.submit_tagged st ~demand:1.0 ~tag:1)
  in
  Sim.run sim;
  let _, queued_latency, _ =
    List.find (fun (tag, _, _) -> tag = 1) !finished
  in
  check_float 1e-9 "queued job latency" 2.0 queued_latency;
  Alcotest.(check (list (float 1e-9)))
    "completion times" [ 2.0; 3.0 ]
    (List.rev_map (fun (_, _, at) -> at) !finished)

let test_speed_change_applies_to_next_job () =
  let sim = Sim.create () in
  let st, finished = station sim in
  Station.submit_tagged st ~demand:1.0 ~tag:0;
  Station.submit_tagged st ~demand:1.0 ~tag:1;
  (* Speed up while the first job is in service; only the queued job
     benefits. *)
  Station.set_speed st 2.0;
  Sim.run sim;
  Alcotest.(check (list (float 1e-9)))
    "latencies" [ 1.0; 1.5 ] (latencies finished)

let test_utilization () =
  let sim = Sim.create () in
  let st, _ = station sim in
  Station.submit_tagged st ~demand:3.0 ~tag:0;
  Sim.run sim;
  check_float 1e-9 "utilization" 0.3 (Station.utilization st ~until:10.0);
  check_float 1e-9 "zero horizon" 0.0 (Station.utilization st ~until:0.0)

let test_fail_returns_pending_jobs () =
  let sim = Sim.create () in
  let st, finished = station sim in
  for i = 0 to 2 do
    Station.submit_tagged st ~demand:5.0 ~tag:i
  done;
  let (_ : Sim.handle) =
    Sim.schedule_at sim ~time:1.0 (fun () ->
        let jobs = Station.fail st in
        Alcotest.(check (list int))
          "interrupted tags (in-service first)" [ 0; 1; 2 ]
          (List.map (fun j -> j.Station.tag) jobs))
  in
  Sim.run sim;
  check_int "no completions" 0 (List.length !finished);
  check_bool "failed" true (Station.failed st)

let test_submit_to_failed_rejected () =
  let sim = Sim.create () in
  let st, _ = station sim in
  let (_ : Station.job list) = Station.fail st in
  Alcotest.check_raises "failed" (Failure "s: submit to failed station")
    (fun () -> Station.submit_tagged st ~demand:1.0 ~tag:0)

let test_recover () =
  let sim = Sim.create () in
  let st, finished = station sim in
  let (_ : Station.job list) = Station.fail st in
  Station.recover st;
  check_bool "alive" false (Station.failed st);
  Station.submit_tagged st ~demand:1.0 ~tag:9;
  Sim.run sim;
  check_bool "serves again" true
    (List.exists (fun (tag, _, _) -> tag = 9) !finished)

let test_double_fail_empty () =
  let sim = Sim.create () in
  let st = Station.create sim ~name:"s" ~speed:1.0 in
  let first = Station.fail st in
  let second = Station.fail st in
  check_int "first empty (idle)" 0 (List.length first);
  check_int "second empty (already failed)" 0 (List.length second)

let test_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "speed"
    (Invalid_argument "Station.create: speed must be positive") (fun () ->
      ignore (Station.create sim ~name:"s" ~speed:0.0));
  let st, _ = station sim in
  Alcotest.check_raises "demand"
    (Invalid_argument "Station.submit_tagged: demand must be positive")
    (fun () -> Station.submit_tagged st ~demand:0.0 ~tag:0);
  Alcotest.check_raises "set_speed"
    (Invalid_argument "Station.set_speed: speed must be positive") (fun () ->
      Station.set_speed st (-1.0))

let prop_total_latency_conserves_work =
  (* With FIFO and a single server, the k-th of n simultaneous unit
     jobs has latency k/speed. *)
  QCheck.Test.make ~count:100 ~name:"batch FIFO latencies are k * service"
    QCheck.(pair (int_range 1 20) (float_range 0.5 4.0))
    (fun (n, speed) ->
      let sim = Sim.create () in
      let st, finished = station ~speed sim in
      for i = 1 to n do
        Station.submit_tagged st ~demand:1.0 ~tag:i
      done;
      Sim.run sim;
      let expected = List.init n (fun i -> float_of_int (i + 1) /. speed) in
      List.for_all2
        (fun a b -> Float.abs (a -. b) < 1e-9)
        (latencies finished) expected)

let suite =
  [
    Alcotest.test_case "single job latency" `Quick test_single_job_latency;
    Alcotest.test_case "FIFO queueing" `Quick test_fifo_queueing_latencies;
    Alcotest.test_case "arrival during service" `Quick
      test_arrival_during_service;
    Alcotest.test_case "speed change" `Quick test_speed_change_applies_to_next_job;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "fail returns jobs" `Quick test_fail_returns_pending_jobs;
    Alcotest.test_case "submit to failed rejected" `Quick
      test_submit_to_failed_rejected;
    Alcotest.test_case "recover" `Quick test_recover;
    Alcotest.test_case "double fail" `Quick test_double_fail_empty;
    Alcotest.test_case "validation" `Quick test_validation;
    QCheck_alcotest.to_alcotest prop_total_latency_conserves_work;
  ]
