(* Delegate-crash handling and sparkline rendering.  The claim
   harness itself runs full-size in the golden test (test/golden),
   which fails on any failed claim. *)

let check_bool = Alcotest.(check bool)

let test_delegate_crash_forgets_history () =
  let family = Hashlib.Hash_family.create ~seed:3 in
  let servers = List.init 2 Sharedfs.Server_id.of_int in
  let config =
    {
      Placement.Anu.default_config with
      Placement.Anu.heuristics = Placement.Heuristics.divergent_only;
    }
  in
  let t = Placement.Anu.create ~config ~family ~servers () in
  let report id latency =
    {
      Sharedfs.Delegate.server = Sharedfs.Server_id.of_int id;
      speed_hint = 1.0;
      report =
        {
          Sharedfs.Server.mean_latency = latency;
          max_latency = latency;
          requests = 10;
        };
    }
  in
  let feedback reports =
    { Placement.Policy.time = 0.0; reports; future_demand = lazy [] }
  in
  (* Establish history: server 0 at 100ms. *)
  Placement.Anu.rebalance t (feedback [ report 0 100.0; report 1 10.0 ]);
  let m_before = Placement.Region_map.measure_of (Placement.Anu.region_map t)
      (Sharedfs.Server_id.of_int 0) in
  (* Server 0 still above average but falling: divergent blocks the
     shrink. *)
  Placement.Anu.rebalance t (feedback [ report 0 80.0; report 1 10.0 ]);
  let m_blocked = Placement.Region_map.measure_of (Placement.Anu.region_map t)
      (Sharedfs.Server_id.of_int 0) in
  Alcotest.(check (float 1e-9)) "divergent blocked the shrink" m_before m_blocked;
  (* Delegate crashes; the fresh delegate has no history, so the same
     falling-but-overloaded report now acts. *)
  Placement.Anu.forget_history t;
  Placement.Anu.rebalance t (feedback [ report 0 60.0; report 1 10.0 ]);
  let m_after = Placement.Region_map.measure_of (Placement.Anu.region_map t)
      (Sharedfs.Server_id.of_int 0) in
  check_bool "acted without history" true (m_after < m_blocked)

let test_runner_delegate_crash_event () =
  let trace =
    Workload.Synthetic.generate
      {
        Workload.Synthetic.default_config with
        Workload.Synthetic.file_sets = 30;
        requests = 2_000;
        duration = 1_000.0;
      }
  in
  let events =
    [ { Experiments.Runner.at = 300.0; action = Experiments.Runner.Delegate_crash } ]
  in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace ~events ()
  in
  Alcotest.(check int) "still completes" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let test_sparkline () =
  let point start mean count =
    { Desim.Timeseries.bucket_start = start; mean; count; max = mean }
  in
  let line =
    Experiments.Report.sparkline
      [ point 0.0 0.0 0; point 1.0 0.05 3; point 2.0 1.0 5 ]
      ~ceiling:1.0
  in
  (* Empty bucket renders as a dot; the full bucket as the top
     block. *)
  check_bool "dot for empty" true (String.length line > 3 && line.[0] = '.');
  check_bool "has blocks" true (String.length line = 7)

let suite =
  [
    Alcotest.test_case "delegate crash forgets history" `Quick
      test_delegate_crash_forgets_history;
    Alcotest.test_case "runner delegate crash event" `Slow
      test_runner_delegate_crash_event;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
  ]
