(* Runner integration: full simulations on small workloads, membership
   events, result bookkeeping. *)

open Experiments

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_trace =
  Workload.Synthetic.generate
    {
      Workload.Synthetic.default_config with
      Workload.Synthetic.file_sets = 40;
      requests = 4_000;
      duration = 2_000.0;
    }

let scenario = Scenario.default

let test_all_policies_complete () =
  List.iter
    (fun spec ->
      let r = Runner.run scenario spec ~trace:small_trace () in
      check_int
        (Scenario.policy_name spec ^ " completes everything")
        r.Runner.submitted r.Runner.completed;
      check_bool "latencies sane" true (r.Runner.overall_mean > 0.0);
      check_int "five series" 5 (List.length r.Runner.server_series))
    [
      Scenario.Simple_random;
      Scenario.Round_robin;
      Scenario.Prescient;
      Scenario.Anu Placement.Anu.default_config;
    ]

let test_deterministic_repeat () =
  let spec = Scenario.Anu Placement.Anu.default_config in
  let a = Runner.run scenario spec ~trace:small_trace () in
  let b = Runner.run scenario spec ~trace:small_trace () in
  Alcotest.(check (float 1e-12))
    "identical means" a.Runner.overall_mean b.Runner.overall_mean;
  check_int "identical moves" (List.length a.Runner.moves)
    (List.length b.Runner.moves)

let test_static_policies_never_move () =
  List.iter
    (fun spec ->
      let r = Runner.run scenario spec ~trace:small_trace () in
      check_int "no moves" 0 (List.length r.Runner.moves))
    [ Scenario.Simple_random; Scenario.Round_robin ]

let test_reconfig_rounds_counted () =
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ()
  in
  (* 2000 s / 120 s = 16 full intervals. *)
  check_int "rounds" 16 r.Runner.reconfig_rounds

let test_series_cover_duration () =
  let r =
    Runner.run scenario Scenario.Round_robin ~trace:small_trace ()
  in
  List.iter
    (fun (_, points) ->
      (* Buckets every 120 s covering [0, 2000]: 17 buckets. *)
      check_int "bucket count" 17 (List.length points))
    r.Runner.server_series

let test_failure_event () =
  let events =
    [
      { Runner.at = 500.0; action = Runner.Fail 4 };
    ]
  in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "still completes everything" r.Runner.submitted r.Runner.completed;
  (* The failed server serves nothing after the event. *)
  let series = List.assoc 4 r.Runner.server_series in
  let late_requests =
    List.fold_left
      (fun acc p ->
        if p.Desim.Timeseries.bucket_start > 620.0 then
          acc + p.Desim.Timeseries.count
        else acc)
      0 series
  in
  check_int "dead server idle" 0 late_requests;
  (* Adoption moves with no source appear. *)
  check_bool "adoptions recorded" true
    (List.exists (fun m -> m.Sharedfs.Cluster.src = None) r.Runner.moves)

let test_failure_and_recovery_event () =
  let events =
    [
      { Runner.at = 500.0; action = Runner.Fail 3 };
      { Runner.at = 1100.0; action = Runner.Recover 3 };
    ]
  in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed;
  let series = List.assoc 3 r.Runner.server_series in
  let served_after_recovery =
    List.fold_left
      (fun acc p ->
        if p.Desim.Timeseries.bucket_start >= 1200.0 then
          acc + p.Desim.Timeseries.count
        else acc)
      0 series
  in
  check_bool "recovered server serves again" true (served_after_recovery > 0)

let test_add_server_event () =
  let events = [ { Runner.at = 600.0; action = Runner.Add (9, 9.0) } ] in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed;
  check_int "six series" 6 (List.length r.Runner.server_series);
  let series = List.assoc 9 r.Runner.server_series in
  let served =
    List.fold_left (fun acc p -> acc + p.Desim.Timeseries.count) 0 series
  in
  check_bool "new server takes load" true (served > 0)

(* A server added mid-run gets the cluster's station hooks: on an
   observed run (tracing and telemetry, so the start hook is installed
   too) the requests for the sets placed on it complete there, with
   their request spans closing on it. *)
let test_add_server_observed () =
  let events = [ { Runner.at = 600.0; action = Runner.Add (9, 9.0) } ] in
  let ring = Obs.Sink.Ring.create ~capacity:100_000 in
  let obs =
    Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ]
      ~telemetry:(Obs.Telemetry.create ()) ()
  in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ~obs ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed;
  let served = List.assoc 9 r.Runner.per_server_requests in
  check_bool "new server takes load" true (served > 0);
  let ended_on_9 =
    List.length
      (List.filter
         (function
           | Obs.Event.Span_end { name = "request"; server = Some 9; _ } -> true
           | _ -> false)
         (Obs.Sink.Ring.contents ring))
  in
  check_int "request spans end on it" served ended_on_9;
  let tl = Option.get r.Runner.telemetry in
  let s9 =
    List.find (fun s -> s.Obs.Telemetry.server = 9) tl.Obs.Telemetry.servers
  in
  check_int "telemetry counts them" served s9.Obs.Telemetry.requests;
  check_bool "its start hook ran" true (s9.Obs.Telemetry.busy_seconds > 0.0)

(* The completion hook sees every request exactly once, with its file
   set, operation, path hash and client, also when a crash redelivers
   some of them. *)
let test_on_request_complete_sees_every_request () =
  let events =
    [
      { Runner.at = 500.0; action = Runner.Fail 3 };
      { Runner.at = 1100.0; action = Runner.Recover 3 };
    ]
  in
  let names = Array.of_list (Workload.Trace.file_sets small_trace) in
  let key name (req : Sharedfs.Request.t) =
    (name, req.op, req.path_hash, req.client)
  in
  let seen = ref [] in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events
      ~on_request_complete:(fun ~fs ~op ~path_hash ~client ~latency ->
        check_bool "latency is positive" true (latency > 0.0);
        seen := (names.(fs), op, path_hash, client) :: !seen)
      ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed;
  let expected =
    Array.to_list
      (Array.map
         (fun rc ->
           let req = rc.Workload.Trace.request in
           key req.Sharedfs.Request.file_set req)
         (Workload.Trace.records small_trace))
  in
  check_int "one call per request" (List.length expected) (List.length !seen);
  check_bool "the same requests" true
    (List.sort compare expected = List.sort compare !seen)

let test_set_speed_event () =
  let events = [ { Runner.at = 200.0; action = Runner.Set_speed (0, 50.0) } ] in
  let r =
    Runner.run scenario (Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events ()
  in
  check_int "completes" r.Runner.submitted r.Runner.completed

let test_summary_helpers () =
  let r =
    Runner.run scenario Scenario.Round_robin ~trace:small_trace ()
  in
  let imb = Runner.converged_imbalance r ~from_:600.0 in
  check_bool "imbalance >= 1" true (imb >= 1.0);
  let m = Runner.mean_after r ~from_:600.0 in
  check_bool "mean positive" true (m > 0.0)

let test_anu_beats_static_on_heterogeneous_cluster () =
  (* The headline claim, in miniature: on a skewed workload over
     heterogeneous servers, ANU's converged latency beats round-robin
     and lands within a modest factor of prescient. *)
  let trace =
    Workload.Dfs_like.generate
      { Workload.Dfs_like.default_config with Workload.Dfs_like.requests = 30_000 }
  in
  let run spec = Runner.run scenario spec ~trace () in
  let rr = run Scenario.Round_robin in
  let anu = run (Scenario.Anu Placement.Anu.default_config) in
  let presc = run Scenario.Prescient in
  let late r = Runner.mean_after r ~from_:1800.0 in
  check_bool "anu beats round-robin after convergence" true
    (late anu < late rr);
  check_bool "anu within 5x of prescient" true
    (late anu < 5.0 *. late presc)

let suite =
  [
    Alcotest.test_case "all policies complete" `Slow test_all_policies_complete;
    Alcotest.test_case "deterministic repeat" `Slow test_deterministic_repeat;
    Alcotest.test_case "static policies never move" `Slow
      test_static_policies_never_move;
    Alcotest.test_case "reconfig rounds" `Slow test_reconfig_rounds_counted;
    Alcotest.test_case "series cover duration" `Slow test_series_cover_duration;
    Alcotest.test_case "failure event" `Slow test_failure_event;
    Alcotest.test_case "failure and recovery" `Slow test_failure_and_recovery_event;
    Alcotest.test_case "add server event" `Slow test_add_server_event;
    Alcotest.test_case "add server: observed requests" `Slow
      test_add_server_observed;
    Alcotest.test_case "on_request_complete: every request" `Slow
      test_on_request_complete_sees_every_request;
    Alcotest.test_case "set speed event" `Slow test_set_speed_event;
    Alcotest.test_case "summary helpers" `Slow test_summary_helpers;
    Alcotest.test_case "anu beats static" `Slow
      test_anu_beats_static_on_heterogeneous_cluster;
  ]
