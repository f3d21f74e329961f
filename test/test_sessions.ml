(* Session workload, namespace resolution, and the cluster's live
   lock service (conflicts, deferred grants, lease reclaim). *)

open Sharedfs
module Id = Server_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Sessions generator --- *)

let small_sessions =
  {
    Workload.Sessions.default_config with
    Workload.Sessions.sessions = 200;
    clients = 10;
    file_sets = 8;
  }

let test_sessions_structure () =
  let trace = Workload.Sessions.generate small_sessions in
  check_int "one open per session" 200
    (Workload.Sessions.session_count trace);
  let counts =
    Array.fold_left
      (fun (acq, rel, close) r ->
        match r.Workload.Trace.request.Request.op with
        | Request.Lock_acquire -> (acq + 1, rel, close)
        | Request.Lock_release -> (acq, rel + 1, close)
        | Request.Close_file -> (acq, rel, close + 1)
        | _ -> (acq, rel, close))
      (0, 0, 0)
      (Workload.Trace.records trace)
  in
  let acq, rel, close = counts in
  check_int "one acquire per session" 200 acq;
  check_int "one release per session" 200 rel;
  check_int "one close per session" 200 close

let test_sessions_deterministic () =
  let a = Workload.Sessions.generate small_sessions in
  let b = Workload.Sessions.generate small_sessions in
  check_bool "identical" true
    (Workload.Trace.counts_by_file_set a = Workload.Trace.counts_by_file_set b)

let test_sessions_validation () =
  Alcotest.check_raises "sessions"
    (Invalid_argument "Sessions.generate: sessions must be positive")
    (fun () ->
      ignore
        (Workload.Sessions.generate
           { small_sessions with Workload.Sessions.sessions = 0 }))

(* --- Namespace --- *)

let test_namespace_longest_prefix () =
  let ns =
    Namespace.create
      [ ("/", "root-fs"); ("/home", "home-fs"); ("/home/alice", "alice-fs") ]
  in
  Alcotest.(check (option string)) "deep" (Some "alice-fs")
    (Namespace.resolve ns "/home/alice/doc.txt");
  Alcotest.(check (option string)) "mid" (Some "home-fs")
    (Namespace.resolve ns "/home/bob");
  Alcotest.(check (option string)) "root" (Some "root-fs")
    (Namespace.resolve ns "/var/log");
  Alcotest.(check (option string)) "exact mount" (Some "alice-fs")
    (Namespace.resolve ns "/home/alice")

let test_namespace_component_boundaries () =
  let ns = Namespace.create [ ("/home", "home-fs") ] in
  Alcotest.(check (option string)) "no false prefix" None
    (Namespace.resolve ns "/homework")

let test_namespace_mount_unmount () =
  let ns = Namespace.create [ ("/", "root-fs") ] in
  let ns = Namespace.mount ns ~path:"/scratch" ~file_set:"scratch-fs" in
  Alcotest.(check (option string)) "mounted" (Some "scratch-fs")
    (Namespace.resolve ns "/scratch/tmp");
  let ns = Namespace.unmount ns ~path:"/scratch" in
  Alcotest.(check (option string)) "unmounted falls back" (Some "root-fs")
    (Namespace.resolve ns "/scratch/tmp");
  Alcotest.check_raises "unknown unmount"
    (Invalid_argument "Namespace.unmount: not mounted: /nope") (fun () ->
      ignore (Namespace.unmount ns ~path:"/nope"))

let test_namespace_validation () =
  Alcotest.check_raises "relative"
    (Invalid_argument "Namespace: path must be absolute: home") (fun () ->
      ignore (Namespace.create [ ("home", "fs") ]));
  Alcotest.check_raises "trailing slash"
    (Invalid_argument "Namespace: no trailing slash: /home/") (fun () ->
      ignore (Namespace.create [ ("/home/", "fs") ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Namespace.create: duplicate mount path") (fun () ->
      ignore (Namespace.create [ ("/a", "x"); ("/a", "y") ]));
  let ns = Namespace.create [ ("/a", "x") ] in
  check_bool "covered" true (Namespace.covered ns ~file_set:"x" = [ "/a" ]);
  check_int "mounts" 1 (List.length (Namespace.mounts ns))

(* --- Live lock service in the cluster --- *)

let lock_req ?(exclusive = true) ~client file_set =
  (* path_hash land 3 = 0 selects Exclusive in Request.lock_mode. *)
  let path_hash = if exclusive then 4 else 1 in
  { Request.op = Request.Lock_acquire; file_set; path_hash; client }

let release_req ?(exclusive = true) ~client file_set =
  let path_hash = if exclusive then 4 else 1 in
  { Request.op = Request.Lock_release; file_set; path_hash; client }

let make_cluster () =
  let sim = Desim.Sim.create () in
  let disk = Shared_disk.create () in
  let catalog = File_set.Catalog.create [ "a"; "b" ] in
  let cluster =
    Cluster.create sim ~disk ~catalog ~lease_duration:30.0
      ~series_interval:10.0
      ~servers:[ (Id.of_int 0, 1.0) ]
      ()
  in
  Cluster.assign_initial cluster [ ("a", Id.of_int 0); ("b", Id.of_int 0) ];
  (sim, cluster, Completions.install cluster)

let test_conflicting_acquire_waits_for_release () =
  let sim, cluster, hand = make_cluster () in
  let grant_times = ref [] in
  let submit_at time req =
    let (_ : Desim.Sim.handle) =
      Desim.Sim.schedule_at sim ~time (fun () ->
          Completions.submit hand ~base_demand:0.1 req
            ~on_complete:(fun ~latency:_ ->
              grant_times := (req.Request.client, Desim.Sim.now sim) :: !grant_times))
    in
    ()
  in
  submit_at 0.0 (lock_req ~client:1 "a");
  submit_at 1.0 (lock_req ~client:2 "a");
  submit_at 5.0 (release_req ~client:1 "a");
  Desim.Sim.run sim;
  let stats = Cluster.lock_stats cluster in
  check_int "one immediate grant" 1 stats.Cluster.granted_immediately;
  check_int "one waited" 1 stats.Cluster.waited;
  (* Client 2's grant lands when client 1 releases (just after t=5),
     far later than its own service time. *)
  let t2 = List.assoc 2 !grant_times in
  check_bool "waited for the release" true (t2 >= 5.0);
  check_bool "well before lease expiry" true (t2 < 10.0)

let test_shared_locks_do_not_conflict () =
  let sim, cluster, hand = make_cluster () in
  let completed = ref 0 in
  List.iter
    (fun client ->
      Completions.submit hand ~base_demand:0.1
        (lock_req ~exclusive:false ~client "a")
        ~on_complete:(fun ~latency:_ -> incr completed))
    [ 1; 2; 3 ];
  Desim.Sim.run sim;
  check_int "all granted" 3 !completed;
  let stats = Cluster.lock_stats cluster in
  check_int "no waits" 0 stats.Cluster.waited

let test_lease_reclaims_abandoned_lock () =
  let sim, cluster, hand = make_cluster () in
  let t2_granted = ref 0.0 in
  (* Client 1 takes the lock and never releases (crashed client). *)
  Completions.submit hand ~base_demand:0.1 (lock_req ~client:1 "a")
    ~on_complete:(fun ~latency:_ -> ());
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:2.0 (fun () ->
        Completions.submit hand ~base_demand:0.1 (lock_req ~client:2 "a")
          ~on_complete:(fun ~latency:_ -> t2_granted := Desim.Sim.now sim))
  in
  Desim.Sim.run sim;
  let stats = Cluster.lock_stats cluster in
  (* Client 1's abandoned hold expires at ~30 s; client 2, also never
     releasing, expires one lease later. *)
  check_int "both abandoned leases fired" 2 stats.Cluster.leases_expired;
  (* The 30-second lease started at the grant (t ~ 0.1). *)
  check_bool "granted at lease expiry" true
    (!t2_granted >= 30.0 && !t2_granted < 32.0)

let test_release_of_queued_acquire_completes_it () =
  let sim, cluster, hand = make_cluster () in
  let completions = ref 0 in
  Completions.submit hand ~base_demand:0.1 (lock_req ~client:1 "a")
    ~on_complete:(fun ~latency:_ -> incr completions);
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:1.0 (fun () ->
        Completions.submit hand ~base_demand:0.1 (lock_req ~client:2 "a")
          ~on_complete:(fun ~latency:_ -> incr completions))
  in
  (* Client 2 gives up before ever being granted. *)
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:3.0 (fun () ->
        Completions.submit hand ~base_demand:0.1 (release_req ~client:2 "a")
          ~on_complete:(fun ~latency:_ -> incr completions))
  in
  Desim.Sim.run sim;
  check_int "nothing left hanging" 3 !completions;
  check_int "recorded as cancelled" 1 (Cluster.lock_stats cluster).Cluster.cancelled

let test_session_trace_completes_through_runner () =
  let trace = Workload.Sessions.generate small_sessions in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace ()
  in
  check_int "all session ops complete" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed

let suite =
  [
    Alcotest.test_case "sessions structure" `Quick test_sessions_structure;
    Alcotest.test_case "sessions deterministic" `Quick test_sessions_deterministic;
    Alcotest.test_case "sessions validation" `Quick test_sessions_validation;
    Alcotest.test_case "namespace longest prefix" `Quick
      test_namespace_longest_prefix;
    Alcotest.test_case "namespace boundaries" `Quick
      test_namespace_component_boundaries;
    Alcotest.test_case "namespace mount/unmount" `Quick
      test_namespace_mount_unmount;
    Alcotest.test_case "namespace validation" `Quick test_namespace_validation;
    Alcotest.test_case "conflicting acquire waits" `Quick
      test_conflicting_acquire_waits_for_release;
    Alcotest.test_case "shared locks coexist" `Quick
      test_shared_locks_do_not_conflict;
    Alcotest.test_case "lease reclaims abandoned lock" `Quick
      test_lease_reclaims_abandoned_lock;
    Alcotest.test_case "queued acquire cancelled" `Quick
      test_release_of_queued_acquire_completes_it;
    Alcotest.test_case "session trace through runner" `Slow
      test_session_trace_completes_through_runner;
  ]
