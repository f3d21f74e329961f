(* Consistent hashing, the shifting workload, and the
   membership-movement study. *)

module CH = Placement.Consistent_hash
module Id = Sharedfs.Server_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let family = Hashlib.Hash_family.create ~seed:606

let ids n = List.init n Id.of_int

let names m = List.init m (Printf.sprintf "ch-%05d")

(* --- Consistent hashing --- *)

let test_ch_deterministic () =
  let a = CH.create ~family ~servers:(ids 5) () in
  let b = CH.create ~family ~servers:(ids 5) () in
  List.iter
    (fun n -> check_bool "same" true (Id.equal (CH.locate a n) (CH.locate b n)))
    (names 200)

let test_ch_roughly_uniform () =
  let t = CH.create ~family ~servers:(ids 5) ~vnodes:128 () in
  let counts = Array.make 5 0 in
  List.iter
    (fun n ->
      let id = Id.to_int (CH.locate t n) in
      counts.(id) <- counts.(id) + 1)
    (names 5000);
  Array.iter
    (fun c -> if c < 600 || c > 1500 then Alcotest.failf "skewed: %d" c)
    counts

let test_ch_no_collateral_on_removal () =
  let t = CH.create ~family ~servers:(ids 5) () in
  let all = names 2000 in
  let before = List.map (fun n -> (n, CH.locate t n)) all in
  CH.remove_server t (Id.of_int 2);
  List.iter
    (fun (n, owner) ->
      let now = CH.locate t n in
      if Id.equal owner (Id.of_int 2) then
        check_bool "reassigned" false (Id.equal now (Id.of_int 2))
      else
        check_bool "survivor sets untouched" true (Id.equal now owner))
    before

let test_ch_add_restores_exactly () =
  let t = CH.create ~family ~servers:(ids 5) () in
  let all = names 1000 in
  let before = List.map (CH.locate t) all in
  CH.remove_server t (Id.of_int 1);
  CH.add_server t (Id.of_int 1);
  let after = List.map (CH.locate t) all in
  check_bool "identical ring" true (List.for_all2 Id.equal before after)

let test_ch_validation () =
  Alcotest.check_raises "vnodes"
    (Invalid_argument "Consistent_hash.create: vnodes must be positive")
    (fun () -> ignore (CH.create ~family ~servers:(ids 2) ~vnodes:0 ()));
  let t = CH.create ~family ~servers:(ids 1) () in
  Alcotest.check_raises "last member"
    (Invalid_argument "Consistent_hash.remove_server: last member") (fun () ->
      CH.remove_server t (Id.of_int 0));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Consistent_hash.add_server: already a member")
    (fun () -> CH.add_server t (Id.of_int 0))

(* --- Shifting workload --- *)

let small_shift =
  {
    Workload.Shifting.default_config with
    Workload.Shifting.requests = 9_000;
    file_sets = 20;
    phases = 3;
  }

let test_shifting_counts () =
  let t = Workload.Shifting.generate small_shift in
  check_int "exact count" 9_000 (Workload.Trace.length t)

let test_shifting_hotspot_moves () =
  let t = Workload.Shifting.generate small_shift in
  let phase_len =
    small_shift.Workload.Shifting.duration
    /. float_of_int small_shift.Workload.Shifting.phases
  in
  (* Within each phase, that phase's hot sets should dominate. *)
  List.iter
    (fun phase ->
      let lo = float_of_int phase *. phase_len in
      let hi = lo +. phase_len in
      let hot = Workload.Shifting.hot_sets small_shift ~phase in
      let hot_demand, total_demand =
        List.fold_left
          (fun (h, tot) (name, d) ->
            ((if List.mem name hot then h +. d else h), tot +. d))
          (0.0, 0.0)
          (Workload.Trace.window_demand t ~lo ~hi)
      in
      let share = hot_demand /. total_demand in
      if share < 0.55 || share > 0.85 then
        Alcotest.failf "phase %d hot share %.2f out of range" phase share)
    [ 0; 1; 2 ]

let test_shifting_hot_sets_disjoint_across_phases () =
  let h0 = Workload.Shifting.hot_sets small_shift ~phase:0 in
  let h1 = Workload.Shifting.hot_sets small_shift ~phase:1 in
  check_bool "disjoint" true
    (List.for_all (fun n -> not (List.mem n h1)) h0)

let test_shifting_validation () =
  Alcotest.check_raises "phases"
    (Invalid_argument "Shifting.generate: phases must be positive") (fun () ->
      ignore
        (Workload.Shifting.generate
           { small_shift with Workload.Shifting.phases = 0 }))

(* --- Membership study --- *)

let test_membership_consistent_hash_has_no_collateral () =
  let results =
    Experiments.Membership.compare_all ~servers:5 ~file_sets:3_000 ~failed:2
      ~seed:9
  in
  let find m =
    List.find (fun r -> r.Experiments.Membership.mechanism = m) results
  in
  let ch = find Experiments.Membership.Consistent_hash in
  check_int "no collateral" 0 ch.Experiments.Membership.collateral_on_failure;
  (* Recovery moves exactly the sets the returning node's arcs cover. *)
  check_bool "recovery bounded by initial ownership" true
    (ch.Experiments.Membership.moved_on_recovery
    <= ch.Experiments.Membership.owned_by_failed + 50)

let test_membership_anu_collateral_bounded () =
  let results =
    Experiments.Membership.compare_all ~servers:5 ~file_sets:3_000 ~failed:2
      ~seed:9
  in
  let find m =
    List.find (fun r -> r.Experiments.Membership.mechanism = m) results
  in
  let anu = find Experiments.Membership.Anu in
  (* Survivors grow by 1/10 of the interval into half-measure free
     space: collateral stays well under a quarter of the sets. *)
  check_bool "bounded" true
    (anu.Experiments.Membership.collateral_on_failure < 3_000 / 4)

let test_membership_validation () =
  Alcotest.check_raises "failed range"
    (Invalid_argument "Membership.study: failed server out of range")
    (fun () ->
      ignore
        (Experiments.Membership.study ~servers:3 ~file_sets:10 ~failed:3
           ~seed:0 Experiments.Membership.Anu))

(* How much extra movement a fault campaign causes end to end: the
   same synthetic workload run clean and under [Fault.Plan.default
   ~seed], with full invariant checking on the faulty run. *)
type chaos_collateral = {
  policy : string;
  seed : int;
  clean_moves : int;  (* moves the fault-free run performed *)
  chaos_moves : int;  (* moves under the fault plan (incl. re-placement) *)
  moves_failed : int;  (* moves killed mid-flight by endpoint crashes *)
  requests_rebuffered : int;
  violations : int;  (* invariant breaches detected (0 = healthy) *)
}

let collateral_under_chaos ?(quick = false) ~seed ~spec () =
  let module R = Experiments.Runner in
  let module S = Experiments.Scenario in
  let cfg = { Workload.Synthetic.default_config with seed } in
  let cfg =
    if quick then
      {
        cfg with
        Workload.Synthetic.requests = cfg.requests / 10;
        file_sets = cfg.file_sets / 5;
      }
    else cfg
  in
  let trace = Workload.Synthetic.generate cfg in
  let duration = Workload.Trace.duration trace in
  let clean = R.run S.default spec ~trace () in
  let faults = Fault.Plan.default ~seed ~duration in
  let obs = Obs.Ctx.create ~metrics:(Obs.Metrics.create ()) () in
  let chaos = R.run S.default spec ~trace ~faults ~obs () in
  let counter name =
    match chaos.R.metrics with
    | None -> 0
    | Some snap ->
      Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)
  in
  {
    policy = clean.R.policy_name;
    seed;
    clean_moves = List.length clean.R.moves;
    chaos_moves = List.length chaos.R.moves;
    moves_failed = counter "moves.failed";
    requests_rebuffered = counter "requests.rebuffered";
    violations = List.length chaos.R.violations;
  }

let test_collateral_under_chaos_reproducible () =
  (* The chaos-collateral study is a pure function of its seed: two
     invocations agree field for field. *)
  let spec = Experiments.Scenario.Anu Placement.Anu.default_config in
  let run () = collateral_under_chaos ~quick:true ~seed:23 ~spec () in
  let a = run () in
  let b = run () in
  check_bool "byte-reproducible at a fixed seed" true (a = b);
  check_int "seed recorded" 23 a.seed;
  check_bool "policy recorded" true (a.policy = "anu");
  check_int "no invariant violated" 0 a.violations;
  check_bool "chaos perturbs movement" true
    (a.chaos_moves <> a.clean_moves || a.moves_failed > 0)

let test_consistent_hash_runs_in_simulator () =
  let trace =
    Workload.Synthetic.generate
      {
        Workload.Synthetic.default_config with
        Workload.Synthetic.file_sets = 30;
        requests = 2_000;
        duration = 1_000.0;
      }
  in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      Experiments.Scenario.Consistent_hash ~trace ()
  in
  check_int "completes" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed;
  check_int "static: no moves" 0 (List.length r.Experiments.Runner.moves)

let suite =
  [
    Alcotest.test_case "ch deterministic" `Quick test_ch_deterministic;
    Alcotest.test_case "ch uniform" `Quick test_ch_roughly_uniform;
    Alcotest.test_case "ch no collateral" `Quick test_ch_no_collateral_on_removal;
    Alcotest.test_case "ch add restores" `Quick test_ch_add_restores_exactly;
    Alcotest.test_case "ch validation" `Quick test_ch_validation;
    Alcotest.test_case "shifting counts" `Quick test_shifting_counts;
    Alcotest.test_case "shifting hotspot moves" `Quick test_shifting_hotspot_moves;
    Alcotest.test_case "shifting phases disjoint" `Quick
      test_shifting_hot_sets_disjoint_across_phases;
    Alcotest.test_case "shifting validation" `Quick test_shifting_validation;
    Alcotest.test_case "membership: ch collateral" `Quick
      test_membership_consistent_hash_has_no_collateral;
    Alcotest.test_case "membership: anu bounded" `Quick
      test_membership_anu_collateral_bounded;
    Alcotest.test_case "membership validation" `Quick test_membership_validation;
    Alcotest.test_case "collateral under chaos reproducible" `Slow
      test_collateral_under_chaos_reproducible;
    Alcotest.test_case "consistent hash in simulator" `Slow
      test_consistent_hash_runs_in_simulator;
  ]
