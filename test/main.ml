let () =
  Alcotest.run "shdisk"
    [
      ("event_heap", Test_event_heap.suite);
      ("par", Test_par.suite);
      ("sim", Test_sim.suite);
      ("rng", Test_rng.suite);
      ("stat", Test_stat.suite);
      ("timeseries", Test_timeseries.suite);
      ("station", Test_station.suite);
      ("hashlib", Test_hashlib.suite);
      ("unit_interval", Test_unit_interval.suite);
      ("region_map", Test_region_map.suite);
      ("heuristics", Test_heuristics.suite);
      ("anu", Test_anu.suite);
      ("policies", Test_policies.suite);
      ("policy_helpers", Test_policy_helpers.suite);
      ("gossip", Test_gossip.suite);
      ("sharedfs", Test_sharedfs.suite);
      ("san", Test_san.suite);
      ("cluster", Test_cluster.suite);
      ("workload", Test_workload.suite);
      ("stream", Test_stream.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("forensics", Test_forensics.suite);
      ("cli", Test_cli.suite);
      ("runner", Test_runner.suite);
      ("experiments", Test_experiments.suite);
      ("validate", Test_validate.suite);
      ("balance", Test_balance.suite);
      ("membership", Test_membership.suite);
      ("ledger", Test_ledger.suite);
      ("topology", Test_topology.suite);
      ("scale_oracles", Test_scale_oracles.suite);
      ("fault", Test_fault.suite);
      ("explore", Test_explore.suite);
    ]
