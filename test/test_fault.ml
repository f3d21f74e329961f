(* Fault injection: seeded plans, the timeout/retry report protocol,
   crash-tolerant moves, the invariant oracle, and the chaos
   harness. *)

open Sharedfs
module Id = Server_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let req ?(op = Request.Open_file) file_set =
  { Request.op; file_set; path_hash = 1; client = 0 }

let raises f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* --- Desim.Timeout --- *)

let test_timeout_schedule () =
  let p =
    { Desim.Timeout.timeout = 1.0; retries = 2; backoff = 2.0; jitter = 0.0 }
  in
  check_int "attempts" 3 (Desim.Timeout.attempts p);
  check_float 1e-9 "attempt 0 at 0" 0.0 (Desim.Timeout.attempt_start p 0);
  check_float 1e-9 "attempt 1 after first window" 1.0
    (Desim.Timeout.attempt_start p 1);
  check_float 1e-9 "attempt 2 after backoff" 3.0
    (Desim.Timeout.attempt_start p 2);
  check_float 1e-9 "deadline sums all windows" 7.0 (Desim.Timeout.deadline p);
  check_bool "zero timeout rejected" true
    (raises (fun () ->
         Desim.Timeout.validate { p with Desim.Timeout.timeout = 0.0 }));
  check_bool "negative retries rejected" true
    (raises (fun () ->
         Desim.Timeout.validate { p with Desim.Timeout.retries = -1 }));
  check_bool "sub-unit backoff rejected" true
    (raises (fun () ->
         Desim.Timeout.validate { p with Desim.Timeout.backoff = 0.5 }))

let test_timeout_jitter () =
  let p =
    { Desim.Timeout.timeout = 2.0; retries = 1; backoff = 2.0; jitter = 0.5 }
  in
  Desim.Timeout.validate p;
  check_bool "jitter at 1 rejected" true
    (raises (fun () ->
         Desim.Timeout.validate { p with Desim.Timeout.jitter = 1.0 }));
  check_bool "negative jitter rejected" true
    (raises (fun () ->
         Desim.Timeout.validate { p with Desim.Timeout.jitter = -0.1 }));
  (* jitter = 0 returns the nominal window without touching the
     generator: an existing stream is never perturbed. *)
  let rng = Desim.Rng.create 9 in
  let probe = Desim.Rng.copy rng in
  let w =
    Desim.Timeout.jittered_window ~rng { p with Desim.Timeout.jitter = 0.0 } 1
  in
  check_float 1e-9 "zero jitter is the nominal window" 4.0 w;
  check_float 1e-18 "generator untouched" (Desim.Rng.float probe)
    (Desim.Rng.float rng);
  (* Jittered windows stay inside [1-j, 1+j] x nominal and replay
     exactly from an equal seed. *)
  let draws seed =
    let rng = Desim.Rng.create seed in
    List.init 50 (fun i -> Desim.Timeout.jittered_window ~rng p (i mod 2))
  in
  check_bool "same seed, same windows" true (draws 11 = draws 11);
  check_bool "different seed perturbs" true (draws 11 <> draws 12);
  List.iteri
    (fun i w ->
      let nominal = Desim.Timeout.window p (i mod 2) in
      if w < 0.5 *. nominal -. 1e-9 || w > 1.5 *. nominal +. 1e-9 then
        Alcotest.failf "window %d out of range: %g vs nominal %g" i w nominal)
    (draws 11)

(* --- Fault.Plan --- *)

let test_plan_validation () =
  check_bool "negative time rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Crash_at { at = -1.0; server = 0 } ]));
  check_bool "probability above 1 rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Report_loss { probability = 1.5 } ]));
  check_bool "stall factor below 1 rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [
             Fault.Plan.Disk_stall_at
               { at = 0.0; factor = 0.5; duration = 1.0 };
           ]));
  check_bool "zero-based round rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Delegate_crash_in_round { round = 0 } ]))

let test_plan_timeline_deterministic () =
  let specs =
    [
      Fault.Plan.Crash_hazard { server = 0; mttf = 100.0; mttr = 20.0 };
      Fault.Plan.Crash_at { at = 50.0; server = 1 };
      Fault.Plan.Recover_at { at = 90.0; server = 1 };
    ]
  in
  let tl seed =
    Fault.Plan.timeline (Fault.Plan.make ~seed specs) ~duration:500.0
  in
  check_bool "same seed, same timeline" true (tl 7 = tl 7);
  check_bool "different seed perturbs hazards" true (tl 7 <> tl 8);
  let times = List.map fst (tl 7) in
  check_bool "sorted by time" true (List.sort compare times = times);
  check_bool "everything inside the horizon" true
    (List.for_all (fun t -> t >= 0.0 && t < 500.0) times);
  (* A hazard alternates crash / recover for its server. *)
  let s0 =
    List.filter_map
      (fun (_, f) ->
        match f with
        | Fault.Plan.Crash 0 -> Some `C
        | Fault.Plan.Recover 0 -> Some `R
        | _ -> None)
      (tl 7)
  in
  let rec alternates = function
    | `C :: `R :: rest -> alternates (`R :: rest)
    | `R :: `C :: rest -> alternates (`C :: rest)
    | [ _ ] | [] -> true
    | `C :: `C :: _ | `R :: `R :: _ -> false
  in
  check_bool "hazard alternates crash/recover" true
    (match s0 with
    | [] -> true
    | `R :: _ -> false (* cannot recover before first crash *)
    | `C :: _ -> alternates s0)

let test_plan_accessors () =
  let plan =
    Fault.Plan.make ~seed:3
      [
        Fault.Plan.Report_loss { probability = 0.5 };
        Fault.Plan.Report_loss { probability = 0.5 };
        Fault.Plan.Report_delay { base = 0.1; jitter = 0.2 };
        Fault.Plan.Move_crash { nth_move = 4; role = `Dst };
        Fault.Plan.Move_crash { nth_move = 1; role = `Src };
        Fault.Plan.Delegate_crash_in_round { round = 6 };
        Fault.Plan.Delegate_crash_in_round { round = 2 };
      ]
  in
  (* Two independent 50% loss layers compose to 75%. *)
  check_float 1e-9 "loss layers compose" 0.75
    (Fault.Plan.report_loss_probability plan);
  check_bool "move crashes sorted" true
    (Fault.Plan.move_crashes plan = [ (1, `Src); (4, `Dst) ]);
  check_bool "crash rounds sorted" true
    (Fault.Plan.delegate_crash_rounds plan = [ 2; 6 ])

let test_plan_timeline_edge_cases () =
  (* Same-instant crash and recover of one server: ties keep spec
     order, so the pair lands crash-then-recover, deterministically. *)
  let plan =
    Fault.Plan.make ~seed:1
      [
        Fault.Plan.Crash_at { at = 10.0; server = 0 };
        Fault.Plan.Recover_at { at = 10.0; server = 0 };
      ]
  in
  check_bool "tied events keep spec order" true
    (Fault.Plan.timeline plan ~duration:100.0
    = [ (10.0, Fault.Plan.Crash 0); (10.0, Fault.Plan.Recover 0) ]);
  (* Degenerate hazards are rejected up front, not at timeline time. *)
  check_bool "zero mttr rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Crash_hazard { server = 0; mttf = 10.0; mttr = 0.0 } ]));
  check_bool "zero mttf rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Crash_hazard { server = 0; mttf = 0.0; mttr = 5.0 } ]))

let test_plan_partition_timeline () =
  check_bool "non-positive heal_after rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1
           [
             Fault.Plan.Partition_at
               { at = 1.0; server = 0; link = `Cluster; heal_after = 0.0 };
           ]));
  check_bool "negative torn index rejected" true
    (raises (fun () ->
         Fault.Plan.make ~seed:1 [ Fault.Plan.Torn_write { nth_append = -1 } ]));
  let plan =
    Fault.Plan.make ~seed:1
      [
        Fault.Plan.Partition_at
          { at = 10.0; server = 1; link = `Cluster; heal_after = 20.0 };
        Fault.Plan.Partition_at
          { at = 90.0; server = 2; link = `Disk; heal_after = 50.0 };
        Fault.Plan.Torn_write { nth_append = 5 };
        Fault.Plan.Torn_write { nth_append = 3 };
        Fault.Plan.Torn_write { nth_append = 5 };
      ]
  in
  let tl = Fault.Plan.timeline plan ~duration:100.0 in
  check_bool "cut and heal paired" true
    (List.mem (10.0, Fault.Plan.Partition { server = 1; link = `Cluster }) tl
    && List.mem (30.0, Fault.Plan.Heal { server = 1; link = `Cluster }) tl);
  check_bool "cut inside horizon scheduled" true
    (List.mem (90.0, Fault.Plan.Partition { server = 2; link = `Disk }) tl);
  check_bool "heal past the horizon clipped" true
    (not
       (List.exists
          (fun (_, f) ->
            match f with
            | Fault.Plan.Heal { server = 2; _ } -> true
            | _ -> false)
          tl));
  check_bool "torn appends sorted and deduplicated" true
    (Fault.Plan.torn_appends plan = [ 3; 5 ])

let test_plan_spec_kinds_complete () =
  let names = List.map fst Fault.Plan.spec_kinds in
  check_int "fifteen spec kinds documented" 15 (List.length names);
  List.iter
    (fun n ->
      check_bool (n ^ " documented") true (List.mem n names))
    [
      "crash-at"; "partition-at"; "torn-write"; "move-crash"; "report-loss";
      "domain-crash-at"; "domain-recover-at"; "domain-partition-at";
      "domain-hazard";
    ];
  List.iter
    (fun (_, desc) -> check_bool "non-empty description" true (desc <> ""))
    Fault.Plan.spec_kinds

(* --- Delegate.collect_async --- *)

let make_cluster ?(names = [ "a"; "b"; "c"; "d" ])
    ?(speeds = [ 1.0; 1.0; 1.0 ]) () =
  let sim = Desim.Sim.create () in
  let disk = Shared_disk.create () in
  let catalog = File_set.Catalog.create names in
  let servers = List.mapi (fun i s -> (Id.of_int i, s)) speeds in
  let cluster =
    Cluster.create sim ~disk ~catalog ~series_interval:10.0 ~servers ()
  in
  (sim, cluster)

let default_timeout = Desim.Timeout.default

let collect_with ~fate () =
  let sim, cluster = make_cluster () in
  Cluster.assign_initial cluster
    [
      ("a", Id.of_int 0); ("b", Id.of_int 1); ("c", Id.of_int 2);
      ("d", Id.of_int 0);
    ];
  let outcome = ref None in
  Delegate.collect_async cluster ~timeout:default_timeout ~fate
    ~k:(fun o -> outcome := Some o);
  Desim.Sim.run sim;
  (Desim.Sim.now sim, !outcome)

let test_collect_async_complete () =
  let now, outcome =
    collect_with ~fate:(fun ~server:_ ~attempt:_ -> `Deliver 0.1) ()
  in
  (match outcome with
  | Some (Delegate.Round_complete reports) ->
    check_int "all three reported" 3 (List.length reports)
  | _ -> Alcotest.fail "expected Round_complete");
  check_float 1e-9 "round closes at last arrival" 0.1 now

let test_collect_async_degraded () =
  let now, outcome =
    collect_with
      ~fate:(fun ~server ~attempt:_ ->
        if Id.to_int server = 1 then `Lost else `Deliver 0.0)
      ()
  in
  (match outcome with
  | Some (Delegate.Round_degraded { reports; missing }) ->
    check_int "two survivors" 2 (List.length reports);
    check_bool "server 1 missing" true (missing = [ Id.of_int 1 ])
  | _ -> Alcotest.fail "expected Round_degraded");
  check_float 1e-9 "silence waits out the deadline"
    (Desim.Timeout.deadline default_timeout)
    now

let test_collect_async_skipped () =
  let _, outcome =
    collect_with
      ~fate:(fun ~server ~attempt:_ ->
        if Id.to_int server = 0 then `Deliver 0.0 else `Lost)
      ()
  in
  match outcome with
  | Some (Delegate.Round_skipped { missing }) ->
    (* 1 of 3 reports is below the strict-majority quorum of 2. *)
    check_int "two missing" 2 (List.length missing)
  | _ -> Alcotest.fail "expected Round_skipped"

let test_collect_async_slow_reply_retries () =
  (* A reply slower than the attempt window counts as silence; the
     retransmission succeeds inside attempt 1, so the report arrives
     at attempt_start(1) + delay. *)
  let now, outcome =
    collect_with
      ~fate:(fun ~server ~attempt ->
        if Id.to_int server = 2 && attempt = 0 then `Deliver 5.0
        else `Deliver 0.5)
      ()
  in
  (match outcome with
  | Some (Delegate.Round_complete reports) ->
    check_int "all three reported" 3 (List.length reports)
  | _ -> Alcotest.fail "expected Round_complete");
  check_float 1e-9 "retry arrival time"
    (Desim.Timeout.attempt_start default_timeout 1 +. 0.5)
    now

let test_quorum () =
  check_int "quorum of 1" 1 (Delegate.quorum ~alive:1);
  check_int "quorum of 2" 2 (Delegate.quorum ~alive:2);
  check_int "quorum of 5" 3 (Delegate.quorum ~alive:5)

(* --- Cluster: no-op contracts and mid-move crashes --- *)

let test_fail_recover_noop_contracts () =
  let _, cluster = make_cluster () in
  Cluster.assign_initial cluster
    [
      ("a", Id.of_int 0); ("b", Id.of_int 0); ("c", Id.of_int 1);
      ("d", Id.of_int 2);
    ];
  Cluster.recover_server cluster (Id.of_int 0);
  check_bool "recovering an alive server is a no-op" true
    (List.mem (Id.of_int 0) (Cluster.alive_ids cluster));
  let first = Cluster.fail_server cluster (Id.of_int 0) in
  check_bool "first failure orphans the sets" true
    (List.sort compare first = [ "a"; "b" ]);
  check_int "double failure is an explicit no-op" 0
    (List.length (Cluster.fail_server cluster (Id.of_int 0)));
  check_bool "unknown id still rejected" true
    (raises (fun () -> Cluster.fail_server cluster (Id.of_int 99)))

(* One deterministic mid-move crash per role, proving the set is never
   lost or doubly owned and no buffered request is dropped. *)
let mid_move_crash_case ~role () =
  let sim, cluster = make_cluster () in
  Cluster.assign_initial cluster
    [
      ("a", Id.of_int 0); ("b", Id.of_int 1); ("c", Id.of_int 1);
      ("d", Id.of_int 2);
    ];
  let completed = ref 0 in
  let hand = Completions.install cluster in
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:1.0 (fun () ->
        Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1);
        (* Arrives mid-move: buffered behind the transfer. *)
        Completions.submit hand ~base_demand:0.1 (req "a")
          ~on_complete:(fun ~latency:_ -> incr completed))
  in
  (* flush_fixed is 2.0 s, so t=2.0 is mid-flush for the source and
     mid-transfer for the destination. *)
  let victim = match role with `Src -> 0 | `Dst -> 1 in
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:2.0 (fun () ->
        let (_ : string list) =
          Cluster.fail_server cluster (Id.of_int victim)
        in
        ())
  in
  (* The placement layer adopts the orphan on its next sweep. *)
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:30.0 (fun () ->
        check_bool "set is orphaned, not lost" true
          (List.exists
             (fun (n, st) ->
               n = "a"
               && match st with Cluster.State_orphaned _ -> true | _ -> false)
             (Cluster.ownership_states cluster));
        Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 2))
  in
  Desim.Sim.run sim;
  check_int "move died with its endpoint" 1 (Cluster.moves_failed cluster);
  check_int "buffered request replayed, not dropped" 1 !completed;
  check_bool "exactly one final owner" true
    (Cluster.owner cluster "a" = Some (Id.of_int 2));
  let c = Cluster.conservation cluster in
  check_int "conservation: everything completed" c.Cluster.submitted
    c.Cluster.completed;
  check_int "no request parked anywhere" 0
    (c.Cluster.inflight + c.Cluster.buffered + c.Cluster.lock_waiting)

let test_mid_move_crash_src () = mid_move_crash_case ~role:`Src ()
let test_mid_move_crash_dst () = mid_move_crash_case ~role:`Dst ()

let test_src_crash_after_flush_harmless () =
  (* Once the flush finished, the image is on the shared disk: a
     source crash afterwards must NOT kill the move. *)
  let sim, cluster = make_cluster () in
  Cluster.assign_initial cluster
    [
      ("a", Id.of_int 0); ("b", Id.of_int 1); ("c", Id.of_int 1);
      ("d", Id.of_int 2);
    ];
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:1.0 (fun () ->
        Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1))
  in
  (* flush_fixed 2.0 + transfer ends well before t=4.0; init_fixed 3.0
     keeps the move in flight until past t=6. *)
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:4.5 (fun () ->
        let (_ : string list) = Cluster.fail_server cluster (Id.of_int 0) in
        ())
  in
  Desim.Sim.run sim;
  check_int "move survived the source crash" 0 (Cluster.moves_failed cluster);
  check_bool "destination owns the set" true
    (Cluster.owner cluster "a" = Some (Id.of_int 1))

(* --- Shared_disk stall --- *)

let test_disk_stall_scales_transfers () =
  let disk = Shared_disk.create () in
  let base = Shared_disk.transfer_time disk ~bytes:1_000_000 in
  Shared_disk.set_stall disk ~factor:4.0;
  check_float 1e-9 "stalled transfer is 4x" (4.0 *. base)
    (Shared_disk.transfer_time disk ~bytes:1_000_000);
  Shared_disk.clear_stall disk ~factor:4.0;
  check_float 1e-9 "clear restores" base
    (Shared_disk.transfer_time disk ~bytes:1_000_000);
  (* Two stalls of one factor: ending one leaves the other in force. *)
  Shared_disk.set_stall disk ~factor:2.0;
  Shared_disk.set_stall disk ~factor:2.0;
  Shared_disk.clear_stall disk ~factor:2.0;
  check_float 0.0 "the other stall holds" 2.0 (Shared_disk.stall_factor disk);
  Shared_disk.clear_stall disk ~factor:2.0;
  check_float 0.0 "both ended" 1.0 (Shared_disk.stall_factor disk);
  check_bool "factor below 1 rejected" true
    (raises (fun () -> Shared_disk.set_stall disk ~factor:0.9))

let test_overlapping_disk_stalls_traced () =
  (* Two stalls overlap: each is its own "disk-stall" span with its
     own factor, closed by its own id when its duration ends, and the
     disk runs at the larger factor until the later one ends. *)
  let sim, cluster = make_cluster () in
  let ring = Obs.Sink.Ring.create ~capacity:64 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let nop ~domain:_ _ = () in
  let actions =
    {
      Fault.Injector.crash = nop;
      recover = nop;
      crash_delegate = (fun () -> ());
      partition = (fun ~domain:_ _ ~link:_ -> ());
      heal = nop;
    }
  in
  let plan =
    Fault.Plan.make ~seed:1
      [
        Fault.Plan.Disk_stall_at { at = 10.0; factor = 2.0; duration = 20.0 };
        Fault.Plan.Disk_stall_at { at = 15.0; factor = 4.0; duration = 20.0 };
      ]
  in
  let inj =
    Fault.Injector.arm ~sim ~cluster ~obs ~duration:100.0 ~actions plan
  in
  let disk = Cluster.disk cluster in
  List.iter
    (fun (time, factor) ->
      Desim.Sim.run_until sim ~time;
      check_float 0.0 (Printf.sprintf "stall factor at %g s" time) factor
        (Shared_disk.stall_factor disk))
    [ (12.0, 2.0); (20.0, 4.0); (32.0, 4.0); (36.0, 1.0) ];
  Desim.Sim.run_until sim ~time:100.0;
  let events = Obs.Sink.Ring.contents ring in
  let begins =
    List.filter_map
      (function
        | Obs.Event.Span_begin { id; name = "disk-stall"; time; attrs; _ } ->
          Some (id, time, attrs)
        | _ -> None)
      events
  in
  let ends =
    List.filter_map
      (function
        | Obs.Event.Span_end { id; name = "disk-stall"; time; _ } ->
          Some (id, time)
        | _ -> None)
      events
  in
  check_bool "one span per stall, each with its factor" true
    (match begins with
    | [ (a, 10.0, [ Obs.Event.Factor 2.0 ]); (b, 15.0, [ Obs.Event.Factor 4.0 ]) ]
      ->
      a <> b && ends = [ (a, 30.0); (b, 35.0) ]
    | _ -> false);
  check_bool "both stalls counted at both edges" true
    (Fault.Injector.faults_injected inj
    = [ ("disk_stall_end", 2); ("disk_stall_start", 2) ])

(* --- Fault.Invariants --- *)

let fake_policy ?(regions = fun () -> []) ?(check = fun () -> []) () =
  {
    Placement.Policy.name = "fake";
    locate = (fun _ -> Id.of_int 0);
    rebalance = (fun _ -> ());
    server_failed = (fun _ -> ());
    server_added = (fun _ -> ());
    delegate_crashed = (fun () -> ());
    regions;
    changed_servers = Placement.Policy.no_changes;
    check;
  }

let test_invariants_half_occupancy () =
  let _, cluster = make_cluster () in
  Cluster.assign_initial cluster
    [
      ("a", Id.of_int 0); ("b", Id.of_int 0); ("c", Id.of_int 0);
      ("d", Id.of_int 0);
    ];
  let ok =
    fake_policy
      ~regions:(fun () -> [ (Id.of_int 0, 0.2); (Id.of_int 1, 0.3) ])
      ()
  in
  check_int "healthy regions pass" 0
    (List.length (Fault.Invariants.check ~cluster ~policy:ok ()));
  let broken =
    fake_policy ~regions:(fun () -> [ (Id.of_int 0, 0.3) ]) ()
  in
  check_int "mapped measure away from 1/2 caught" 1
    (List.length (Fault.Invariants.check ~cluster ~policy:broken ()));
  let negative =
    fake_policy
      ~regions:(fun () -> [ (Id.of_int 0, 0.6); (Id.of_int 1, -0.1) ])
      ()
  in
  check_bool "negative measure caught" true
    (List.length (Fault.Invariants.check ~cluster ~policy:negative ()) >= 1)

let test_invariants_policy_self_check_and_extra () =
  let _, cluster = make_cluster () in
  Cluster.assign_initial cluster
    [
      ("a", Id.of_int 0); ("b", Id.of_int 0); ("c", Id.of_int 0);
      ("d", Id.of_int 0);
    ];
  let policy = fake_policy ~check:(fun () -> [ "self-check broke" ]) () in
  let vs =
    Fault.Invariants.check ~cluster ~policy
      ~extra:(fun () -> [ "deliberately broken" ])
      ()
  in
  check_bool "policy self-check surfaces" true
    (List.exists
       (fun v -> v.Fault.Invariants.what = "self-check broke")
       vs);
  check_bool "extra hook surfaces" true
    (List.exists
       (fun v -> v.Fault.Invariants.what = "deliberately broken")
       vs)

let test_invariants_real_anu_clean () =
  let _, cluster = make_cluster () in
  let family = Hashlib.Hash_family.create ~seed:5 in
  let anu =
    Placement.Anu.policy
      (Placement.Anu.create ~family
         ~servers:[ Id.of_int 0; Id.of_int 1; Id.of_int 2 ]
         ())
  in
  Cluster.assign_initial cluster
    (Placement.Policy.assignment_of anu [ "a"; "b"; "c"; "d" ]);
  check_int "fresh ANU cluster is healthy" 0
    (List.length (Fault.Invariants.check ~cluster ~policy:anu ()))

(* --- Runner integration: deterministic regressions --- *)

let small_trace ~seed =
  Workload.Synthetic.generate
    {
      Workload.Synthetic.default_config with
      requests = 1500;
      file_sets = 40;
      duration = 1200.0;
      seed;
    }

let anu_spec = Experiments.Scenario.Anu Placement.Anu.default_config

let run_chaos ?invariant_extra ~plan ~spec () =
  let obs = Obs.Ctx.create ~metrics:(Obs.Metrics.create ()) () in
  Experiments.Runner.run Experiments.Scenario.default spec
    ~trace:(small_trace ~seed:11) ~obs ~faults:plan ?invariant_extra ()

let counter result name =
  match result.Experiments.Runner.metrics with
  | None -> 0
  | Some snap ->
    Option.value ~default:0 (List.assoc_opt name snap.Obs.Metrics.counters)

let test_runner_delegate_crash_mid_round () =
  let plan =
    Fault.Plan.make ~seed:1
      [ Fault.Plan.Delegate_crash_in_round { round = 2 } ]
  in
  let r = run_chaos ~plan ~spec:anu_spec () in
  check_int "exactly one re-election" 1
    (counter r "delegate.reelections");
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let runner_move_crash_case ~role () =
  let plan =
    Fault.Plan.make ~seed:2 [ Fault.Plan.Move_crash { nth_move = 0; role } ]
  in
  let r = run_chaos ~plan ~spec:anu_spec () in
  check_bool "a move died mid-flight" true (counter r "moves.failed" >= 1);
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let test_runner_move_crash_src () = runner_move_crash_case ~role:`Src ()
let test_runner_move_crash_dst () = runner_move_crash_case ~role:`Dst ()

let test_runner_report_loss_degrades_not_garbage () =
  (* Heavy loss: some rounds degrade or skip, but the run still
     completes every request with invariants intact. *)
  let plan =
    Fault.Plan.make ~seed:3
      [ Fault.Plan.Report_loss { probability = 0.45 } ]
  in
  let r = run_chaos ~plan ~spec:anu_spec () in
  check_bool "losses actually happened" true (counter r "reports.lost" > 0);
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let test_runner_broken_invariant_caught () =
  let plan = Fault.Plan.make ~seed:4 [] in
  let r =
    run_chaos ~plan ~spec:anu_spec
      ~invariant_extra:(fun () -> [ "deliberately broken" ])
      ()
  in
  check_bool "the harness reports the breach" true
    (List.length r.Experiments.Runner.violations > 0);
  check_bool "with the planted message" true
    (List.for_all
       (fun (_, what) -> what = "deliberately broken")
       r.Experiments.Runner.violations)

let test_runner_decommission_drains_cleanly () =
  let trace = small_trace ~seed:13 in
  let obs = Obs.Ctx.create ~metrics:(Obs.Metrics.create ()) () in
  let r =
    Experiments.Runner.run Experiments.Scenario.default anu_spec ~trace ~obs
      ~invariants:`Full
      ~events:
        [
          {
            Experiments.Runner.at = 300.0;
            action = Experiments.Runner.Decommission 2;
          };
        ]
      ()
  in
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let test_faultfree_path_unchanged () =
  (* The async machinery must not perturb a run that injects no
     faults: byte-identical results with and without the plumbing
     compiled in means same submitted/completed/moves/rounds. *)
  let trace = small_trace ~seed:17 in
  let plain =
    Experiments.Runner.run Experiments.Scenario.default anu_spec ~trace ()
  in
  let checked =
    Experiments.Runner.run Experiments.Scenario.default anu_spec ~trace
      ~invariants:`Full ()
  in
  check_int "same completions" plain.Experiments.Runner.completed
    checked.Experiments.Runner.completed;
  check_int "same moves"
    (List.length plain.Experiments.Runner.moves)
    (List.length checked.Experiments.Runner.moves);
  check_float 1e-9 "same mean latency" plain.Experiments.Runner.overall_mean
    checked.Experiments.Runner.overall_mean;
  check_int "and the checked run is healthy" 0
    (List.length checked.Experiments.Runner.violations)

(* Every way a delegate round can end, each produced by a plan: the
   round span's outcome, the re-addressing sweep it triggers, whether
   it tuned and applied, and the [rounds.*] counters must agree. *)
let round_record ?faults () =
  let kept = ref [] in
  let sink =
    Obs.Sink.make ~name:"rounds" (fun e ->
        match e with
        | Obs.Event.Span_begin { cat = "round"; _ }
        | Obs.Event.Span_end { cat = "round"; _ }
        | Obs.Event.Rehash_round _ ->
          kept := e :: !kept
        | _ -> ())
  in
  let obs =
    Obs.Ctx.create ~sinks:[ sink ] ~metrics:(Obs.Metrics.create ()) ()
  in
  let r =
    Experiments.Runner.run Experiments.Scenario.default anu_spec
      ~trace:(small_trace ~seed:11) ~obs ?faults ()
  in
  (r, List.rev !kept)

(* [(begin time, (outcome, end attributes), stages)] of every round
   span, in order. *)
let rounds_of events =
  List.filter_map
    (function
      | Obs.Event.Span_begin { name = "round"; id; time; _ } ->
        let outcome =
          List.find_map
            (function
              | Obs.Event.Span_end
                  { name = "round"; id = id'; outcome = Some o; attrs; _ }
                when id' = id ->
                Some (o, attrs)
              | _ -> None)
            events
        in
        let stages =
          List.filter_map
            (function
              | Obs.Event.Span_begin { parent = Some p; name; _ } when p = id ->
                Some name
              | _ -> None)
            events
        in
        Some (time, Option.value outcome ~default:("open", []), stages)
      | _ -> None)
    events

let round_triggers =
  [ "delegate-round"; "round-skipped"; "round-fenced"; "delegate-crash" ]

let check_round_outcomes ~label ?faults ~expect () =
  let r, events = round_record ?faults () in
  let rounds = rounds_of events in
  check_int (label ^ ": one span per round")
    r.Experiments.Runner.reconfig_rounds (List.length rounds);
  List.iter
    (fun (at, (outcome, attrs), stages) ->
      let trigger, tuned =
        match outcome with
        | "applied" | "degraded" -> ("delegate-round", true)
        | "skipped" -> ("round-skipped", false)
        | "fenced" -> ("round-fenced", false)
        | "delegate-crash" -> ("delegate-crash", false)
        | other -> Alcotest.failf "%s: round at %g ended %S" label at other
      in
      let swept =
        List.filter_map
          (function
            | Obs.Event.Rehash_round { time; trigger; _ }
              when time = at && List.mem trigger round_triggers ->
              Some trigger
            | _ -> None)
          events
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: round at %g (%s) sweeps once" label at outcome)
        [ trigger ] swept;
      Alcotest.(check (list string))
        (Printf.sprintf "%s: round at %g (%s) stages" label at outcome)
        (if tuned then [ "collect"; "tune"; "apply" ] else [ "collect" ])
        stages;
      (* Only a round that heard from some servers names the others. *)
      check_bool
        (Printf.sprintf "%s: round at %g (%s) end attributes" label at outcome)
        true
        (match (outcome, attrs) with
        | "degraded", [ Obs.Event.Missing (_ :: _); Obs.Event.Survivors n ] ->
          n > 0
        | "skipped", [ Obs.Event.Missing (_ :: _); Obs.Event.Survivors 0 ] ->
          true
        | ("degraded" | "skipped"), _ -> false
        | _, attrs -> attrs = []))
    rounds;
  let count o =
    List.length (List.filter (fun (_, (o', _), _) -> o' = o) rounds)
  in
  List.iter
    (fun (outcome, n) ->
      check_int
        (Printf.sprintf "%s: %s rounds" label outcome)
        n (count outcome))
    expect;
  check_int (label ^ ": rounds.degraded") (count "degraded")
    (counter r "rounds.degraded");
  check_int (label ^ ": rounds.skipped") (count "skipped")
    (counter r "rounds.skipped");
  check_int (label ^ ": rounds.fenced") (count "fenced")
    (counter r "rounds.fenced");
  check_int
    (label ^ ": fault.delegate_crash")
    (count "delegate-crash")
    (counter r "fault.delegate_crash");
  check_int (label ^ ": no invariant violated") 0
    (List.length r.Experiments.Runner.violations);
  r

let test_runner_round_outcomes () =
  (* Fault-free: the synchronous collect, and the lease is never
     touched. *)
  let r =
    check_round_outcomes ~label:"fault-free" ~expect:[ ("applied", 10) ] ()
  in
  check_int "fault-free: no epoch bump" 0 (counter r "fence.epoch_bump");
  List.iter
    (fun (label, specs, expect) ->
      let faults = Fault.Plan.make ~seed:3 specs in
      let (_ : Experiments.Runner.result) =
        check_round_outcomes ~label ~faults ~expect ()
      in
      ())
    [
      ("empty plan", [], [ ("applied", 10) ]);
      ( "report loss",
        [ Fault.Plan.Report_loss { probability = 0.7 } ],
        [ ("applied", 1); ("degraded", 6); ("skipped", 3) ] );
      (* A delay past every retry window silences every server. *)
      ( "report delay",
        [ Fault.Plan.Report_delay { base = 100.0; jitter = 0.0 } ],
        [ ("skipped", 10) ] );
      (* Reports take half a second; the delegate (server 0) loses the
         cluster network while round 1's are in flight. *)
      ( "partition mid-round",
        [
          Fault.Plan.Report_delay { base = 0.5; jitter = 0.0 };
          Fault.Plan.Partition_at
            { at = 120.25; server = 0; link = `Cluster; heal_after = 400.0 };
        ],
        [ ("fenced", 1); ("applied", 9) ] );
      ( "delegate crash",
        [ Fault.Plan.Delegate_crash_in_round { round = 2 } ],
        [ ("delegate-crash", 1); ("applied", 9) ] );
    ]

(* --- Chaos harness --- *)

let test_chaos_survives_and_reproduces () =
  let s1 = Experiments.Chaos.run ~quick:true ~seed:42 ~spec:anu_spec () in
  check_bool "ANU survives the default plan" true
    s1.Experiments.Chaos.survived;
  check_int "zero violations" 0
    (List.length s1.Experiments.Chaos.violations);
  check_bool "faults were actually injected" true
    (s1.Experiments.Chaos.faults <> []);
  let s2 = Experiments.Chaos.run ~quick:true ~seed:42 ~spec:anu_spec () in
  check_bool "seeded chaos run is reproducible" true (s1 = s2);
  let rendered s = Format.asprintf "%a" Experiments.Chaos.pp s in
  Alcotest.(check string)
    "byte-identical summary" (rendered s1) (rendered s2)

(* --- Partitions, fencing and the ledger --- *)

let test_runner_partition_fences_and_heals () =
  (* The initially elected delegate (server 0) loses the cluster
     network while moves are in flight; a long partition guarantees
     zombie probes land and the old lease expires un-renewed before
     the heal. *)
  let plan =
    Fault.Plan.make ~seed:5
      [
        Fault.Plan.Partition_at
          { at = 130.0; server = 0; link = `Cluster; heal_after = 400.0 };
      ]
  in
  let r = run_chaos ~plan ~spec:anu_spec () in
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed;
  check_int "partition forced one re-election" 1
    (counter r "delegate.reelections");
  check_bool "epoch bumped at least twice (t=0 election + re-election)" true
    (counter r "fence.epoch_bump" >= 2);
  check_bool "zombie writes attempted and rejected" true
    (counter r "fence.write_rejected" > 0);
  check_bool "ledger audited along the way" true
    (counter r "ledger.replays" > 0)

let test_runner_disk_partition_survives () =
  let plan =
    Fault.Plan.make ~seed:6
      [
        Fault.Plan.Partition_at
          { at = 250.0; server = 2; link = `Disk; heal_after = 200.0 };
      ]
  in
  let r = run_chaos ~plan ~spec:anu_spec () in
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed;
  check_bool "fenced at the disk: zombie writes rejected" true
    (counter r "fence.write_rejected" > 0)

let test_runner_torn_write_repaired () =
  (* The trace has 40 file sets, so the initial assignment journals 40
     commits; index 45 tears a record written mid-run. *)
  let plan =
    Fault.Plan.make ~seed:7 [ Fault.Plan.Torn_write { nth_append = 45 } ]
  in
  let r = run_chaos ~plan ~spec:anu_spec () in
  check_int "exactly one torn append" 1 (counter r "ledger.torn_writes");
  check_bool "the invariant sweep repaired it" true
    (counter r "ledger.repaired" >= 1);
  check_int "no invariant violated" 0
    (List.length r.Experiments.Runner.violations);
  check_int "no request lost" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let test_chaos_partition_mix_acceptance () =
  (* The headline scenario: cluster partition of the delegate during
     in-flight moves, a disk partition, a torn ledger append and
     report loss — zero violations, every zombie write rejected, fsck
     clean, byte-reproducible. *)
  let s1 =
    Experiments.Chaos.run ~quick:true ~plan_kind:`Partition ~seed:42
      ~spec:anu_spec ()
  in
  check_bool "ANU survives the partition mix" true
    s1.Experiments.Chaos.survived;
  check_int "zero violations" 0 (List.length s1.Experiments.Chaos.violations);
  check_bool "partitions actually happened" true
    (List.assoc_opt "partition_cut" s1.Experiments.Chaos.faults = Some 2);
  check_bool "and healed" true
    (List.assoc_opt "partition_healed" s1.Experiments.Chaos.faults = Some 2);
  check_int "the armed append tore" 1 s1.Experiments.Chaos.torn_writes;
  check_bool "and was repaired in-run" true
    (s1.Experiments.Chaos.torn_repaired >= 1);
  check_bool "zombie writes were attempted and all rejected" true
    (s1.Experiments.Chaos.zombie_writes_rejected > 0);
  check_bool "elections happened under fresh epochs" true
    (s1.Experiments.Chaos.epoch_bumps >= 2);
  check_bool "post-run fsck is clean without repair" true
    s1.Experiments.Chaos.fsck.Cluster.clean;
  check_int "no torn record left on disk" 0
    s1.Experiments.Chaos.fsck.Cluster.torn_found;
  let s2 =
    Experiments.Chaos.run ~quick:true ~plan_kind:`Partition ~seed:42
      ~spec:anu_spec ()
  in
  check_bool "partition chaos is byte-reproducible" true (s1 = s2)

(* --- Domain faults: validation, timelines, chaos acceptance --- *)

let error_message f =
  match f () with
  | exception Invalid_argument m -> m
  | _ -> "<no exception raised>"

let test_plan_validation_messages () =
  (* The error pins the offending spec by position and constructor. *)
  Alcotest.(check string) "index and constructor named"
    "Fault.Plan.make: spec 1 (Crash_at): fault time must be >= 0"
    (error_message (fun () ->
         Fault.Plan.make ~seed:1
           [
             Fault.Plan.Report_loss { probability = 0.1 };
             Fault.Plan.Crash_at { at = -1.0; server = 0 };
           ]));
  Alcotest.(check string) "empty domain name"
    "Fault.Plan.make: spec 0 (Domain_crash_at): domain name must be non-empty"
    (error_message (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Domain_crash_at { at = 1.0; domain = "" } ]));
  Alcotest.(check string) "degenerate domain hazard"
    "Fault.Plan.make: spec 2 (Domain_hazard): mttf and mttr must be positive"
    (error_message (fun () ->
         Fault.Plan.make ~seed:1
           [
             Fault.Plan.Report_loss { probability = 0.1 };
             Fault.Plan.Crash_at { at = 0.0; server = 0 };
             Fault.Plan.Domain_hazard { domain = "r"; mttf = 0.0; mttr = 1.0 };
           ]));
  Alcotest.(check string) "zero heal_after on a domain partition"
    "Fault.Plan.make: spec 0 (Domain_partition_at): partition heal_after \
     must be positive"
    (error_message (fun () ->
         Fault.Plan.make ~seed:1
           [
             Fault.Plan.Domain_partition_at
               { at = 1.0; domain = "r"; link = `Cluster; heal_after = 0.0 };
           ]));
  Alcotest.(check string) "negative domain recover time"
    "Fault.Plan.make: spec 0 (Domain_recover_at): fault time must be >= 0"
    (error_message (fun () ->
         Fault.Plan.make ~seed:1
           [ Fault.Plan.Domain_recover_at { at = -0.5; domain = "r" } ]))

let test_plan_domain_timeline () =
  let plan = Fault.Plan.domain_mix ~seed:9 ~duration:1000.0 in
  check_bool "referenced domains in first-mention order" true
    (Fault.Plan.domains plan = [ "rack0"; "rack1" ]);
  let tl = Fault.Plan.timeline plan ~duration:1000.0 in
  check_bool "rack0 partition cut at 0.18d" true
    (List.mem
       (180.0, Fault.Plan.Domain_partition { domain = "rack0"; link = `Cluster })
       tl);
  check_bool "rack0 heals at 0.33d" true
    (List.mem
       (330.0, Fault.Plan.Domain_heal { domain = "rack0"; link = `Cluster })
       tl);
  check_bool "rack1 crashes whole at 0.45d" true
    (List.mem (450.0, Fault.Plan.Domain_crash "rack1") tl);
  check_bool "rack1 recovers at 0.62d" true
    (List.mem (620.0, Fault.Plan.Domain_recover "rack1") tl);
  (* Expansion rewrites every domain event to per-server events at the
     same instant, members in ascending id order, nothing domain-level
     left behind. *)
  let servers_of = function
    | "rack0" -> [ 1; 0 ]
    | "rack1" -> [ 4; 2; 3 ]
    | d -> Alcotest.failf "unexpected domain %s" d
  in
  let expanded = Fault.Plan.expand ~servers_of tl in
  let times = List.map fst expanded in
  check_bool "expansion keeps times non-decreasing" true
    (List.sort compare times = times);
  check_bool "rack1 crash expands to ascending members" true
    (List.filter_map
       (fun (at, f) ->
         match f with
         | Fault.Plan.Crash s when at = 450.0 -> Some s
         | _ -> None)
       expanded
    = [ 2; 3; 4 ]);
  check_bool "no domain-level event survives expansion" true
    (List.for_all
       (fun (_, f) ->
         match f with
         | Fault.Plan.Domain_crash _ | Fault.Plan.Domain_recover _
         | Fault.Plan.Domain_partition _ | Fault.Plan.Domain_heal _ ->
           false
         | _ -> true)
       expanded)

(* Timelines clip at the horizon exactly: events land in [0, duration),
   a partition cut is scheduled iff it starts inside the horizon, and
   its heal iff that also lands inside — for per-server and domain
   variants alike. *)
let prop_timeline_clips_at_horizon =
  QCheck.Test.make ~count:200 ~name:"timeline clips at the horizon"
    QCheck.(pair small_int (triple (int_bound 20) (int_bound 20) (int_bound 20)))
    (fun (seed, (a, h, d)) ->
      (* Halves of integers so [at], [at + heal] and [duration] hit
         exact equality often — the boundary under test. *)
      let at = float_of_int a /. 2.0 in
      let heal = float_of_int (h + 1) /. 2.0 in
      let duration = float_of_int (d + 1) /. 2.0 in
      let plan =
        Fault.Plan.make ~seed
          [
            Fault.Plan.Crash_hazard { server = 0; mttf = 2.0; mttr = 1.0 };
            Fault.Plan.Partition_at
              { at; server = 1; link = `Disk; heal_after = heal };
            Fault.Plan.Domain_hazard { domain = "r"; mttf = 2.0; mttr = 1.0 };
            Fault.Plan.Domain_partition_at
              { at; domain = "r"; link = `Cluster; heal_after = heal };
          ]
      in
      let tl = Fault.Plan.timeline plan ~duration in
      let inside = List.for_all (fun (t, _) -> t >= 0.0 && t < duration) tl in
      let has p = List.exists p tl in
      let cut_ok =
        has (fun (_, f) -> f = Fault.Plan.Partition { server = 1; link = `Disk })
        = (at < duration)
      and heal_ok =
        has (fun (_, f) -> f = Fault.Plan.Heal { server = 1; link = `Disk })
        = (at < duration && at +. heal < duration)
      and dcut_ok =
        has (fun (_, f) ->
            f = Fault.Plan.Domain_partition { domain = "r"; link = `Cluster })
        = (at < duration)
      and dheal_ok =
        has (fun (_, f) ->
            f = Fault.Plan.Domain_heal { domain = "r"; link = `Cluster })
        = (at < duration && at +. heal < duration)
      in
      if not inside then QCheck.Test.fail_report "event outside [0, duration)";
      if not (cut_ok && dcut_ok) then
        QCheck.Test.fail_report "cut scheduled iff at < duration broken";
      if not (heal_ok && dheal_ok) then
        QCheck.Test.fail_report "heal scheduled iff inside horizon broken";
      true)

(* Two domain events at the same instant expand in event order, each
   domain's members in ascending id order — duplicates kept (expand
   sorts, it does not dedupe), so the runner's per-member no-op
   contract is what absorbs overlap, not the plan. *)
let prop_expand_tie_order =
  QCheck.Test.make ~count:200 ~name:"expand keeps tie order and sorts members"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5) (int_bound 9))
        (list_of_size Gen.(1 -- 5) (int_bound 9)))
    (fun (ma, mb) ->
      let servers_of = function
        | "a" -> ma
        | "b" -> mb
        | _ -> []
      in
      let expanded =
        Fault.Plan.expand ~servers_of
          [
            (5.0, Fault.Plan.Domain_crash "a");
            (5.0, Fault.Plan.Domain_crash "b");
          ]
      in
      let expect =
        List.map
          (fun s -> (5.0, Fault.Plan.Crash s))
          (List.sort Int.compare ma @ List.sort Int.compare mb)
      in
      expanded = expect)

let test_chaos_domain_mix_acceptance () =
  (* The headline correlated-fault scenario: the delegate's whole rack
     partitions off the cluster at once, later the big rack
     hard-crashes and recovers as single events — zero violations,
     fsck clean, byte-reproducible. *)
  let s1 =
    Experiments.Chaos.run ~quick:true ~plan_kind:`Domain ~seed:42
      ~spec:anu_spec ()
  in
  check_bool "ANU survives the domain mix" true s1.Experiments.Chaos.survived;
  check_int "zero violations" 0 (List.length s1.Experiments.Chaos.violations);
  let fault name = List.assoc_opt name s1.Experiments.Chaos.faults in
  check_bool "one whole-domain crash" true (fault "domain.crash" = Some 1);
  check_bool "one whole-domain recovery" true
    (fault "domain.recover" = Some 1);
  check_bool "one whole-domain partition cut" true
    (fault "domain.partition_cut" = Some 1);
  check_bool "which healed" true (fault "domain.partition_healed" = Some 1);
  check_int "the armed append tore" 1 s1.Experiments.Chaos.torn_writes;
  check_bool "zombie writes from the fenced rack all bounced" true
    (s1.Experiments.Chaos.zombie_writes_rejected > 0);
  check_bool "the survivors re-elected under a fresh epoch" true
    (s1.Experiments.Chaos.epoch_bumps >= 1);
  check_bool "post-run fsck is clean without repair" true
    s1.Experiments.Chaos.fsck.Cluster.clean;
  let s2 =
    Experiments.Chaos.run ~quick:true ~plan_kind:`Domain ~seed:42
      ~spec:anu_spec ()
  in
  check_bool "domain chaos is byte-reproducible" true (s1 = s2)

let test_domain_collateral_both_directions () =
  (* The regression that pins the safety claim in both directions:
     spread-constrained ANU holds the collateral bound at every rack
     count, and the unconstrained twin demonstrably breaks both the
     geometric and the material half of it. *)
  let prefixed ~prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let f = Experiments.Figures.domain_failure_collateral ~quick:true () in
  (match f.Experiments.Figures.results with
  | [ r2; r3; r5; un ] ->
    List.iter
      (fun (r : Experiments.Runner.result) ->
        check_int
          (r.Experiments.Runner.policy_name ^ " holds the bound")
          0
          (List.length r.Experiments.Runner.violations))
      [ r2; r3; r5 ];
    Alcotest.(check string) "last panel is the unconstrained twin"
      "anu-unconstrained" un.Experiments.Runner.policy_name;
    check_bool "spread violations detected" true
      (List.exists
         (fun (_, what) -> prefixed ~prefix:"domain spread broken" what)
         un.Experiments.Runner.violations);
    check_bool "collateral violations detected" true
      (List.exists
         (fun (_, what) -> prefixed ~prefix:"collateral unbounded" what)
         un.Experiments.Runner.violations)
  | rs -> Alcotest.failf "expected four panels, got %d" (List.length rs));
  let g = Experiments.Figures.domain_failure_collateral ~quick:true () in
  (* Everything the seed determines must replay exactly; only the
     engine's wall-clock self-measurement is exempt. *)
  let virtual_content (fig : Experiments.Figures.figure) =
    List.map
      (fun (r : Experiments.Runner.result) ->
        { r with Experiments.Runner.sim_wall_seconds = 0.0 })
      fig.Experiments.Figures.results
  in
  check_bool "figure is byte-reproducible" true
    (virtual_content f = virtual_content g)

(* --- qcheck: invariants across arbitrary membership interleavings --- *)

(* Op codes: 0 = fail, 1 = recover, 2 = add, 3 = retune,
   4 = delegate crash, 5 = decommission.  Each op carries a server
   index; guards mirror the runner's (never fail the last server,
   never double-fail or double-recover). *)
let prop_interleaving_preserves_invariants =
  QCheck.Test.make ~count:40
    ~name:"half-occupancy + single ownership across fail/recover/add/\
           decommission/retune interleavings"
    QCheck.(
      pair small_int (small_list (pair (int_bound 5) (int_bound 6))))
    (fun (seed, ops) ->
      let names = List.init 24 (Printf.sprintf "qfs-%02d") in
      let sim = Desim.Sim.create () in
      let disk = Shared_disk.create () in
      let catalog = File_set.Catalog.create names in
      let base = [ 0; 1; 2; 3 ] in
      let servers = List.map (fun i -> (Id.of_int i, 1.0)) base in
      let cluster =
        Cluster.create sim ~disk ~catalog ~series_interval:10.0 ~servers ()
      in
      let family = Hashlib.Hash_family.create ~seed:(seed + 1) in
      let policy =
        Placement.Anu.policy
          (Placement.Anu.create ~family
             ~servers:(List.map Id.of_int base)
             ())
      in
      Cluster.assign_initial cluster
        (Placement.Policy.assignment_of policy names);
      let next_id = ref 4 in
      let reconcile () =
        List.iter
          (fun n ->
            let want = policy.Placement.Policy.locate n in
            match Cluster.owner cluster n with
            | Some have when Id.equal have want -> ()
            | Some _ | None -> Cluster.move cluster ~file_set:n ~dst:want)
          names
      in
      let alive () = Cluster.alive_ids cluster in
      let apply (code, k) =
        match code with
        | 0 ->
          (* fail, never the last one standing *)
          let a = alive () in
          if List.length a > 1 then begin
            let id = List.nth a (k mod List.length a) in
            let (_ : string list) = Cluster.fail_server cluster id in
            policy.Placement.Policy.server_failed id;
            reconcile ()
          end
        | 1 ->
          let all = List.init !next_id Id.of_int in
          let dead =
            List.filter
              (fun id ->
                Cluster.mem_server cluster id
                && Server.failed (Cluster.server cluster id))
              all
          in
          if dead <> [] then begin
            let id = List.nth dead (k mod List.length dead) in
            Cluster.recover_server cluster id;
            policy.Placement.Policy.server_added id;
            reconcile ()
          end
        | 2 ->
          if !next_id < 8 then begin
            let id = Id.of_int !next_id in
            incr next_id;
            Cluster.add_server cluster id ~speed:1.0;
            policy.Placement.Policy.server_added id;
            reconcile ()
          end
        | 3 ->
          let reports = Delegate.collect cluster in
          policy.Placement.Policy.rebalance
            {
              Placement.Policy.time = Desim.Sim.now sim;
              reports;
              future_demand = lazy [];
            };
          reconcile ()
        | 4 -> policy.Placement.Policy.delegate_crashed ()
        | 5 ->
          (* decommission: re-address first, then take the machine
             away; the drain is cut short on purpose so interrupted
             moves exercise the orphan path too *)
          let a = alive () in
          if List.length a > 1 then begin
            let id = List.nth a (k mod List.length a) in
            policy.Placement.Policy.server_failed id;
            reconcile ();
            let (_ : string list) = Cluster.fail_server cluster id in
            reconcile ()
          end
        | _ -> ()
      in
      List.iter
        (fun op ->
          apply op;
          Desim.Sim.run sim;
          (* A final sweep adopts anything a cut-short decommission
             orphaned before we judge the ownership invariant. *)
          reconcile ();
          Desim.Sim.run sim;
          match Fault.Invariants.check ~cluster ~policy () with
          | [] -> ()
          | vs ->
            QCheck.Test.fail_reportf "invariant violated after op %a:@.%a"
              (fun ppf (c, k) -> Format.fprintf ppf "(%d,%d)" c k)
              op
              (Format.pp_print_list Fault.Invariants.pp_violation)
              vs)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "timeout: schedule arithmetic" `Quick
      test_timeout_schedule;
    Alcotest.test_case "timeout: seeded jitter" `Quick test_timeout_jitter;
    Alcotest.test_case "plan: validation" `Quick test_plan_validation;
    Alcotest.test_case "plan: timeline edge cases" `Quick
      test_plan_timeline_edge_cases;
    Alcotest.test_case "plan: partition timeline" `Quick
      test_plan_partition_timeline;
    Alcotest.test_case "plan: spec kinds complete" `Quick
      test_plan_spec_kinds_complete;
    Alcotest.test_case "plan: timeline deterministic" `Quick
      test_plan_timeline_deterministic;
    Alcotest.test_case "plan: accessors" `Quick test_plan_accessors;
    Alcotest.test_case "collect_async: complete" `Quick
      test_collect_async_complete;
    Alcotest.test_case "collect_async: degraded quorum" `Quick
      test_collect_async_degraded;
    Alcotest.test_case "collect_async: below quorum skips" `Quick
      test_collect_async_skipped;
    Alcotest.test_case "collect_async: slow reply retries" `Quick
      test_collect_async_slow_reply_retries;
    Alcotest.test_case "quorum arithmetic" `Quick test_quorum;
    Alcotest.test_case "cluster: fail/recover no-op contracts" `Quick
      test_fail_recover_noop_contracts;
    Alcotest.test_case "cluster: mid-move src crash" `Quick
      test_mid_move_crash_src;
    Alcotest.test_case "cluster: mid-move dst crash" `Quick
      test_mid_move_crash_dst;
    Alcotest.test_case "cluster: src crash after flush is harmless" `Quick
      test_src_crash_after_flush_harmless;
    Alcotest.test_case "shared disk: stall factor" `Quick
      test_disk_stall_scales_transfers;
    Alcotest.test_case "injector: overlapping disk stalls traced" `Quick
      test_overlapping_disk_stalls_traced;
    Alcotest.test_case "invariants: half-occupancy" `Quick
      test_invariants_half_occupancy;
    Alcotest.test_case "invariants: self-check and extra hook" `Quick
      test_invariants_policy_self_check_and_extra;
    Alcotest.test_case "invariants: fresh ANU cluster healthy" `Quick
      test_invariants_real_anu_clean;
    Alcotest.test_case "runner: delegate crash mid-round" `Quick
      test_runner_delegate_crash_mid_round;
    Alcotest.test_case "runner: mid-move src crash survives" `Quick
      test_runner_move_crash_src;
    Alcotest.test_case "runner: mid-move dst crash survives" `Quick
      test_runner_move_crash_dst;
    Alcotest.test_case "runner: report loss degrades, never garbage" `Quick
      test_runner_report_loss_degrades_not_garbage;
    Alcotest.test_case "runner: planted broken invariant caught" `Quick
      test_runner_broken_invariant_caught;
    Alcotest.test_case "runner: decommission drains cleanly" `Quick
      test_runner_decommission_drains_cleanly;
    Alcotest.test_case "runner: fault-free path unchanged" `Quick
      test_faultfree_path_unchanged;
    Alcotest.test_case "runner: every round outcome" `Quick
      test_runner_round_outcomes;
    Alcotest.test_case "chaos: survives and reproduces" `Quick
      test_chaos_survives_and_reproduces;
    Alcotest.test_case "runner: delegate partition fences and heals" `Quick
      test_runner_partition_fences_and_heals;
    Alcotest.test_case "runner: disk partition survives" `Quick
      test_runner_disk_partition_survives;
    Alcotest.test_case "runner: torn ledger append repaired" `Quick
      test_runner_torn_write_repaired;
    Alcotest.test_case "chaos: partition mix acceptance" `Quick
      test_chaos_partition_mix_acceptance;
    Alcotest.test_case "plan: validation messages" `Quick
      test_plan_validation_messages;
    Alcotest.test_case "plan: domain timeline and expansion" `Quick
      test_plan_domain_timeline;
    Alcotest.test_case "chaos: domain mix acceptance" `Quick
      test_chaos_domain_mix_acceptance;
    Alcotest.test_case "figure: domain collateral both directions" `Slow
      test_domain_collateral_both_directions;
    QCheck_alcotest.to_alcotest prop_timeline_clips_at_horizon;
    QCheck_alcotest.to_alcotest prop_expand_tie_order;
    QCheck_alcotest.to_alcotest prop_interleaving_preserves_invariants;
  ]
