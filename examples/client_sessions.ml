(* Client sessions and the lock service.

   Real clients do not issue independent requests: they open a file,
   take a lock, work, release, close.  This example runs a
   session-structured workload through the full cluster (balanced by
   ANU) and reports what the lock service saw — immediate grants,
   waits behind conflicting holders, and leases reclaimed from
   sessions the trace truncated (the crashed-client case).  It also
   shows the namespace layer mapping paths to the file sets the
   placement layer hashes.

     dune exec examples/client_sessions.exe *)

let () =
  (* Paths resolve to file sets through mounts; the resolved unique
     name is what ANU hashes. *)
  let ns =
    Sharedfs.Namespace.create
      [
        ("/", "sess-fs-000");
        ("/projects", "sess-fs-001");
        ("/projects/simulator", "sess-fs-002");
        ("/home", "sess-fs-003");
      ]
  in
  List.iter
    (fun path ->
      Format.printf "%-28s -> %s@." path
        (Option.value ~default:"(uncovered)" (Sharedfs.Namespace.resolve ns path)))
    [
      "/projects/simulator/main.ml";
      "/projects/notes.txt";
      "/home/alice/queue.dat";
      "/etc/fstab";
    ];

  (* A session workload with deliberately hot files. *)
  let config =
    {
      Workload.Sessions.default_config with
      Workload.Sessions.sessions = 3_000;
      clients = 40;
      file_sets = 30;
      hot_files_per_set = 4;
    }
  in
  let trace = Workload.Sessions.generate config in
  Format.printf
    "@.workload: %d sessions, %d requests over %.0f s, %d file sets@."
    (Workload.Sessions.session_count trace)
    (Workload.Trace.length trace)
    (Workload.Trace.duration trace)
    (List.length (Workload.Trace.file_sets trace));

  let result =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace ()
  in
  Format.printf "%s@.@." (Experiments.Report.summary_line result);

  (* Drive the cluster directly to read the lock-service counters. *)
  let sim = Desim.Sim.create () in
  let disk = Sharedfs.Shared_disk.create () in
  let catalog =
    Sharedfs.File_set.Catalog.create (Workload.Trace.file_sets trace)
  in
  let cluster =
    Sharedfs.Cluster.create sim ~disk ~catalog ~lease_duration:30.0
      ~series_interval:120.0
      ~servers:
        (List.map
           (fun (id, s) -> (Sharedfs.Server_id.of_int id, s))
           Experiments.Scenario.paper_servers)
      ()
  in
  let family = Hashlib.Hash_family.create ~seed:5 in
  let anu =
    Placement.Anu.create ~family
      ~servers:(List.map (fun (id, _) -> Sharedfs.Server_id.of_int id)
                  Experiments.Scenario.paper_servers)
      ()
  in
  Sharedfs.Cluster.assign_initial cluster
    (List.map
       (fun name -> (name, Placement.Anu.locate anu name))
       (Workload.Trace.file_sets trace));
  Sharedfs.Cluster.set_sink cluster
    (fun ~fs:_ ~op:_ ~path_hash:_ ~client:_ ~latency:_ -> ());
  Array.iter
    (fun r ->
      let req = r.Workload.Trace.request in
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:r.Workload.Trace.time (fun () ->
            Sharedfs.Cluster.submit cluster
              ~fs:(Sharedfs.Cluster.fs_id cluster req.Sharedfs.Request.file_set)
              ~op:req.Sharedfs.Request.op ~base_demand:r.Workload.Trace.demand
              ~path_hash:req.Sharedfs.Request.path_hash
              ~client:req.Sharedfs.Request.client)
      in
      ())
    (Workload.Trace.records trace);
  Desim.Sim.run sim;
  let stats = Sharedfs.Cluster.lock_stats cluster in
  Format.printf
    "lock service: %d grants immediate, %d waited behind a conflicting \
     hold,@.              %d cancelled while queued, %d leases reclaimed \
     from truncated sessions@."
    stats.Sharedfs.Cluster.granted_immediately stats.Sharedfs.Cluster.waited
    stats.Sharedfs.Cluster.cancelled stats.Sharedfs.Cluster.leases_expired;
  Format.printf "lock table drained to %d active keys at end of run@."
    (Sharedfs.Cluster.lock_active_keys cluster)
