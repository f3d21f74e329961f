(* Server and Cluster: routing, reports, movement with flush/init
   costs, request buffering, failure and recovery, and the live lock
   service (conflicts, deferred grants, lease reclaim). *)

open Sharedfs
module Id = Server_id

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let req ?(op = Request.Open_file) file_set =
  { Request.op; file_set; path_hash = 1; client = 0 }

(* --- Server --- *)

let test_server_report_window () =
  let sim = Desim.Sim.create () in
  let s =
    Server.create sim ~id:(Id.of_int 0) ~speed:2.0 ~series_interval:10.0 ()
  in
  Server.gain_file_set s ~fs:0 ~cold:false;
  Completions.serve s ~base_demand:2.0 (req "a") ~on_complete:(fun ~latency:_ -> ());
  Desim.Sim.run sim;
  let r = Server.take_report s in
  check_int "requests" 1 r.Server.requests;
  (* demand 2 * open factor 1.0 / speed 2 = 1 second. *)
  check_float 1e-9 "mean" 1.0 r.Server.mean_latency;
  (* Window resets. *)
  let r2 = Server.take_report s in
  check_int "reset" 0 r2.Server.requests

let test_server_cold_cache_slows_service () =
  let sim = Desim.Sim.create () in
  let warm =
    Server.create sim ~id:(Id.of_int 0) ~speed:1.0 ~series_interval:10.0 ()
  in
  let cold =
    Server.create sim ~id:(Id.of_int 1) ~speed:1.0 ~series_interval:10.0 ()
  in
  Server.gain_file_set warm ~fs:0 ~cold:false;
  Server.gain_file_set cold ~fs:0 ~cold:true;
  let lw = ref 0.0 and lc = ref 0.0 in
  Completions.serve warm ~base_demand:1.0 (req "a") ~on_complete:(fun ~latency ->
      lw := latency);
  Completions.serve cold ~base_demand:1.0 (req "a") ~on_complete:(fun ~latency ->
      lc := latency);
  Desim.Sim.run sim;
  check_bool "cold slower" true (!lc > !lw *. 2.0)

(* A request buffered behind a move reaches its server late: the time
   before delivery is part of its latency, and the server's window
   records the same figure. *)
let test_server_extra_latency_accounted () =
  let sim = Desim.Sim.create () in
  let cluster =
    Cluster.create sim ~disk:(Shared_disk.create ())
      ~catalog:(File_set.Catalog.create [ "a" ])
      ~series_interval:10.0
      ~servers:[ (Id.of_int 0, 1.0); (Id.of_int 1, 1.0) ]
      ()
  in
  Cluster.assign_initial cluster [ ("a", Id.of_int 0) ];
  let hand = Completions.install cluster in
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1);
  let got = ref 0.0 and finished = ref 0.0 in
  Completions.submit hand ~base_demand:1.0 (req "a") ~on_complete:(fun ~latency ->
      got := latency;
      finished := Desim.Sim.now sim);
  Desim.Sim.run sim;
  (* Submitted at time 0, so its latency is its completion time. *)
  check_float 1e-9 "buffering delay included" !finished !got;
  check_bool "more than the move" true (!got > 5.0);
  let r = Server.take_report (Cluster.server cluster (Id.of_int 1)) in
  check_float 1e-9 "window sees it too" !got r.Server.mean_latency

let test_server_series () =
  let sim = Desim.Sim.create () in
  let s =
    Server.create sim ~id:(Id.of_int 0) ~speed:1.0 ~series_interval:10.0 ()
  in
  Server.gain_file_set s ~fs:0 ~cold:false;
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:15.0 (fun () ->
        Completions.serve s ~base_demand:1.0 (req "a")
          ~on_complete:(fun ~latency:_ -> ()))
  in
  Desim.Sim.run sim;
  let points = Server.series s ~until:25.0 in
  check_int "three buckets" 3 (List.length points);
  let counts = List.map (fun p -> p.Desim.Timeseries.count) points in
  Alcotest.(check (list int)) "completion in second bucket" [ 0; 1; 0 ] counts

(* --- Cluster helpers --- *)

let make_cluster ?(names = [ "a"; "b"; "c"; "d" ]) ?(speeds = [ 1.0; 2.0 ]) () =
  let sim = Desim.Sim.create () in
  let disk = Shared_disk.create () in
  let catalog = File_set.Catalog.create names in
  let servers = List.mapi (fun i s -> (Id.of_int i, s)) speeds in
  let cluster =
    Cluster.create sim ~disk ~catalog ~series_interval:10.0 ~servers ()
  in
  (sim, cluster)

let assign_all cluster names id =
  Cluster.assign_initial cluster (List.map (fun n -> (n, Id.of_int id)) names)

let test_cluster_routing () =
  let sim, cluster = make_cluster () in
  let hand = Completions.install cluster in
  Cluster.assign_initial cluster
    [ ("a", Id.of_int 0); ("b", Id.of_int 1); ("c", Id.of_int 0);
      ("d", Id.of_int 1) ];
  check_bool "owner a" true (Cluster.owner cluster "a" = Some (Id.of_int 0));
  Alcotest.(check (list string)) "owned_by 0" [ "a"; "c" ]
    (Cluster.owned_by cluster (Id.of_int 0));
  let done_count = ref 0 in
  Completions.submit hand ~base_demand:1.0 (req "a")
    ~on_complete:(fun ~latency:_ -> incr done_count);
  Completions.submit hand ~base_demand:1.0 (req "b")
    ~on_complete:(fun ~latency:_ -> incr done_count);
  Desim.Sim.run sim;
  check_int "both served" 2 !done_count;
  check_int "srv0 served one" 1 (Server.completed (Cluster.server cluster (Id.of_int 0)))

let test_cluster_rejects_unknown () =
  let _sim, cluster = make_cluster () in
  Alcotest.check_raises "unassigned"
    (Failure "Cluster.submit: file set never assigned: a") (fun () ->
      Cluster.submit cluster ~fs:(Cluster.fs_id cluster "a")
        ~op:Request.Open_file ~base_demand:1.0 ~path_hash:1 ~client:0);
  Alcotest.check_raises "double assign"
    (Invalid_argument "Cluster.assign_initial: a assigned twice") (fun () ->
      Cluster.assign_initial cluster [ ("a", Id.of_int 0); ("a", Id.of_int 1) ])

let test_cluster_move_timing_and_buffering () =
  let sim, cluster = make_cluster () in
  let hand = Completions.install cluster in
  assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
  (* Dirty the cache a bit so flush has work. *)
  Completions.submit hand ~base_demand:0.1 (req ~op:Request.Create "a")
    ~on_complete:(fun ~latency:_ -> ());
  Desim.Sim.run sim;
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1);
  check_bool "in transit" true (Cluster.owner cluster "a" = None);
  check_int "one move" 1 (Cluster.moves_started cluster);
  (* A request arriving during the move buffers and completes after,
     with the buffering time in its latency. *)
  let latency = ref 0.0 in
  Completions.submit hand ~base_demand:0.1 (req "a") ~on_complete:(fun ~latency:l ->
      latency := l);
  check_int "buffered" 1 (Cluster.pending_requests cluster);
  Desim.Sim.run sim;
  check_bool "owner now 1" true (Cluster.owner cluster "a" = Some (Id.of_int 1));
  (* Default move config: >= flush_fixed + init_fixed = 5 seconds. *)
  check_bool "latency includes move wait" true (!latency >= 5.0);
  check_int "drained" 0 (Cluster.pending_requests cluster);
  (match Cluster.moves cluster with
  | [ m ] ->
    check_bool "flush accounted" true (m.Cluster.flush_seconds >= 2.0);
    check_bool "init accounted" true (m.Cluster.init_seconds >= 3.0);
    check_bool "src recorded" true (m.Cluster.src = Some (Id.of_int 0))
  | _ -> Alcotest.fail "expected exactly one move record")

let test_cluster_move_noop_to_self () =
  let _sim, cluster = make_cluster () in
  assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 0);
  check_int "no move" 0 (Cluster.moves_started cluster);
  check_bool "still owned" true (Cluster.owner cluster "a" = Some (Id.of_int 0))

let test_cluster_move_cold_cache_at_dst () =
  let sim, cluster = make_cluster () in
  assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1);
  Desim.Sim.run sim;
  let dst = Cluster.server cluster (Id.of_int 1) in
  check_float 1e-9 "cold at destination" 0.0
    (Cache.warmth (Server.cache dst) ~fs:(Cluster.fs_id cluster "a"))

let test_cluster_failure_orphans_and_adoption () =
  let sim, cluster = make_cluster () in
  let hand = Completions.install cluster in
  Cluster.assign_initial cluster
    [ ("a", Id.of_int 0); ("b", Id.of_int 0); ("c", Id.of_int 1);
      ("d", Id.of_int 1) ];
  (* Put long work on server 0, then fail it mid-service. *)
  let latencies = ref [] in
  Completions.submit hand ~base_demand:100.0 (req "a")
    ~on_complete:(fun ~latency -> latencies := latency :: !latencies);
  Completions.submit hand ~base_demand:1.0 (req "b")
    ~on_complete:(fun ~latency -> latencies := latency :: !latencies);
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:1.0 (fun () ->
        let orphans = Cluster.fail_server cluster (Id.of_int 0) in
        Alcotest.(check (list string)) "orphans" [ "a"; "b" ] orphans;
        check_bool "a orphaned" true (Cluster.owner cluster "a" = None);
        check_bool "c unaffected" true
          (Cluster.owner cluster "c" = Some (Id.of_int 1));
        (* The policy re-places the orphans; adoption pays recovery
           cost, no flush. *)
        Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1);
        Cluster.move cluster ~file_set:"b" ~dst:(Id.of_int 1))
  in
  Desim.Sim.run sim;
  check_int "both eventually served" 2 (List.length !latencies);
  check_bool "a adopted" true (Cluster.owner cluster "a" = Some (Id.of_int 1));
  Alcotest.(check (list int)) "only server 1 alive" [ 1 ]
    (List.map Id.to_int (Cluster.alive_ids cluster));
  (* Adoption records carry no source. *)
  let adoptions =
    List.filter (fun m -> m.Cluster.src = None) (Cluster.moves cluster)
  in
  check_int "two adoptions" 2 (List.length adoptions)

let test_cluster_recover_and_move_back () =
  let sim, cluster = make_cluster () in
  assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
  let (_ : string list) = Cluster.fail_server cluster (Id.of_int 0) in
  List.iter
    (fun fs -> Cluster.move cluster ~file_set:fs ~dst:(Id.of_int 1))
    [ "a"; "b"; "c"; "d" ];
  Desim.Sim.run sim;
  Cluster.recover_server cluster (Id.of_int 0);
  Alcotest.(check (list int)) "both alive" [ 0; 1 ]
    (List.map Id.to_int (Cluster.alive_ids cluster));
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 0);
  Desim.Sim.run sim;
  check_bool "moved back" true (Cluster.owner cluster "a" = Some (Id.of_int 0))

let test_cluster_add_server () =
  let sim, cluster = make_cluster () in
  assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
  Cluster.add_server cluster (Id.of_int 7) ~speed:4.0;
  Alcotest.(check (list int)) "three servers" [ 0; 1; 7 ]
    (List.map Id.to_int (Cluster.alive_ids cluster));
  Cluster.move cluster ~file_set:"d" ~dst:(Id.of_int 7);
  Desim.Sim.run sim;
  check_bool "new server owns d" true
    (Cluster.owner cluster "d" = Some (Id.of_int 7));
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Cluster.add_server: duplicate server id") (fun () ->
      Cluster.add_server cluster (Id.of_int 7) ~speed:1.0)

let test_cluster_double_move_ignored () =
  let sim, cluster = make_cluster () in
  assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 1);
  (* Second move while in flight is ignored rather than queued. *)
  Cluster.move cluster ~file_set:"a" ~dst:(Id.of_int 0);
  Desim.Sim.run sim;
  check_int "one move" 1 (Cluster.moves_started cluster);
  check_bool "first destination wins" true
    (Cluster.owner cluster "a" = Some (Id.of_int 1))

(* Conservation under random interleavings of submits and moves: every
   submitted request eventually completes, nothing stays buffered, and
   every file set ends up owned. *)
let prop_random_ops_conserve_requests =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 60)
        (pair (pair (0 -- 3) (0 -- 2)) (float_range 0.1 50.0)))
  in
  QCheck.Test.make ~count:60 ~name:"random submit/move sequences conserve"
    (QCheck.make gen)
    (fun ops ->
      let sim, cluster = make_cluster ~speeds:[ 1.0; 2.0; 4.0 ] () in
      let hand = Completions.install cluster in
      let names = [| "a"; "b"; "c"; "d" |] in
      assign_all cluster [ "a"; "b"; "c"; "d" ] 0;
      let submitted = ref 0 in
      let completed = ref 0 in
      List.iteri
        (fun i ((fs, srv), dt) ->
          let time = (float_of_int i *. 0.01) +. dt in
          let (_ : Desim.Sim.handle) =
            Desim.Sim.schedule_at sim ~time (fun () ->
                if i mod 3 = 0 then
                  Cluster.move cluster ~file_set:names.(fs)
                    ~dst:(Id.of_int srv)
                else begin
                  incr submitted;
                  Completions.submit hand ~base_demand:0.2 (req names.(fs))
                    ~on_complete:(fun ~latency:_ -> incr completed)
                end)
          in
          ())
        ops;
      Desim.Sim.run sim;
      !completed = !submitted
      && Cluster.pending_requests cluster = 0
      && Array.for_all
           (fun name -> Cluster.owner cluster name <> None)
           names)

(* --- Live lock service in the cluster --- *)

let lock_req ?(exclusive = true) ~client file_set =
  (* path_hash land 3 = 0 selects Exclusive in Request.lock_mode. *)
  let path_hash = if exclusive then 4 else 1 in
  { Request.op = Request.Lock_acquire; file_set; path_hash; client }

let release_req ?(exclusive = true) ~client file_set =
  let path_hash = if exclusive then 4 else 1 in
  { Request.op = Request.Lock_release; file_set; path_hash; client }

let make_lock_cluster () =
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
  let sim, cluster, hand = make_lock_cluster () in
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
  let sim, cluster, hand = make_lock_cluster () in
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
  let sim, cluster, hand = make_lock_cluster () in
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
  let sim, cluster, hand = make_lock_cluster () in
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

let suite =
  [
    Alcotest.test_case "server report window" `Quick test_server_report_window;
    Alcotest.test_case "server cold cache" `Quick test_server_cold_cache_slows_service;
    Alcotest.test_case "server extra latency" `Quick
      test_server_extra_latency_accounted;
    Alcotest.test_case "server series" `Quick test_server_series;
    Alcotest.test_case "routing" `Quick test_cluster_routing;
    Alcotest.test_case "unknown file set" `Quick test_cluster_rejects_unknown;
    Alcotest.test_case "move timing and buffering" `Quick
      test_cluster_move_timing_and_buffering;
    Alcotest.test_case "move to self no-op" `Quick test_cluster_move_noop_to_self;
    Alcotest.test_case "cold cache at destination" `Quick
      test_cluster_move_cold_cache_at_dst;
    Alcotest.test_case "failure orphans and adoption" `Quick
      test_cluster_failure_orphans_and_adoption;
    Alcotest.test_case "recover and move back" `Quick
      test_cluster_recover_and_move_back;
    Alcotest.test_case "add server" `Quick test_cluster_add_server;
    Alcotest.test_case "double move ignored" `Quick test_cluster_double_move_ignored;
    Alcotest.test_case "conflicting acquire waits" `Quick
      test_conflicting_acquire_waits_for_release;
    Alcotest.test_case "shared locks coexist" `Quick
      test_shared_locks_do_not_conflict;
    Alcotest.test_case "lease reclaims abandoned lock" `Quick
      test_lease_reclaims_abandoned_lock;
    Alcotest.test_case "queued acquire cancelled" `Quick
      test_release_of_queued_acquire_completes_it;
    QCheck_alcotest.to_alcotest prop_random_ops_conserve_requests;
  ]
