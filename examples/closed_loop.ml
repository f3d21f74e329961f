(* Closed-loop clients as simulation processes.

   The figure experiments replay open-loop traces: arrivals happen at
   recorded times no matter how slow the servers are.  Real clients
   are closed-loop — they wait for each reply before issuing the next
   request — which throttles offered load to whatever the cluster
   sustains.  This example models a population of closed-loop clients
   as YACSIM-style processes (Desim.Process, OCaml 5 effects): each
   client loops request -> wait for reply -> think, against a cluster
   balanced by ANU.

     dune exec examples/closed_loop.exe *)

module Id = Sharedfs.Server_id

let () =
  let sim = Desim.Sim.create () in
  let disk = Sharedfs.Shared_disk.create () in
  let file_sets = List.init 40 (Printf.sprintf "cl-fs-%02d") in
  let catalog = Sharedfs.File_set.Catalog.create file_sets in
  let servers =
    List.map
      (fun (id, s) -> (Id.of_int id, s))
      Experiments.Scenario.paper_servers
  in
  let cluster =
    Sharedfs.Cluster.create sim ~disk ~catalog ~series_interval:60.0 ~servers ()
  in
  let family = Hashlib.Hash_family.create ~seed:5 in
  let anu =
    Placement.Anu.create ~family ~servers:(List.map fst servers) ()
  in
  Sharedfs.Cluster.assign_initial cluster
    (List.map (fun name -> (name, Placement.Anu.locate anu name)) file_sets);

  let duration = 600.0 in
  let rng = Desim.Rng.create 99 in
  let completed = ref 0 in
  let latency_sum = ref 0.0 in
  let population = 60 in
  (* Each client has at most one request outstanding, so the completion
     sink files every reply under the client that issued it. *)
  let replies = Array.make (population + 1) None in
  Sharedfs.Cluster.set_sink cluster
    (fun ~fs:_ ~op:_ ~path_hash:_ ~client ~latency ->
      replies.(client) <- Some latency);

  (* Each client is a sequential process: its loop state lives on its
     stack across simulated waits. *)
  let client id =
    Desim.Process.spawn sim (fun () ->
        let my_rng = Desim.Rng.split rng in
        while Desim.Sim.now sim < duration do
          let name = List.nth file_sets (Desim.Rng.int my_rng 40) in
          let req =
            {
              Sharedfs.Request.op = Workload.Trace.sample_op my_rng;
              file_set = name;
              path_hash = Desim.Rng.int my_rng 10_000;
              client = id;
            }
          in
          replies.(id) <- None;
          Sharedfs.Cluster.submit cluster
            ~fs:(Sharedfs.Cluster.fs_id cluster name)
            ~op:req.Sharedfs.Request.op ~base_demand:0.08
            ~path_hash:req.Sharedfs.Request.path_hash ~client:id;
          Desim.Process.wait_until ~poll_interval:0.005 (fun () ->
              replies.(id) <> None);
          (match replies.(id) with
          | Some l ->
            incr completed;
            latency_sum := !latency_sum +. l
          | None -> ());
          (* Think time before the next request. *)
          Desim.Process.wait (Desim.Rng.exponential my_rng ~mean:0.4)
        done)
  in
  for id = 1 to population do
    client id
  done;

  (* Delegate rounds keep the cluster balanced while clients run. *)
  let rec delegate_round k =
    let at = float_of_int k *. 120.0 in
    if at <= duration then begin
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:at (fun () ->
            let reports = Sharedfs.Delegate.collect cluster in
            Placement.Anu.rebalance anu
              { Placement.Policy.time = at; reports; future_demand = lazy [] };
            List.iter
              (fun name ->
                let want = Placement.Anu.locate anu name in
                match Sharedfs.Cluster.owner cluster name with
                | Some have when Id.equal have want -> ()
                | Some _ | None ->
                  Sharedfs.Cluster.move cluster ~file_set:name ~dst:want)
              file_sets)
      in
      delegate_round (k + 1)
    end
  in
  delegate_round 1;

  Desim.Sim.run sim;
  Format.printf
    "closed loop: %d clients, %.0f s simulated, %d requests completed@."
    population duration !completed;
  Format.printf "throughput %.1f req/s, mean latency %.1f ms@."
    (float_of_int !completed /. duration)
    (1000.0 *. !latency_sum /. float_of_int (max 1 !completed));
  Format.printf "all client processes finished: %b@."
    (Desim.Process.running sim = 0);
  List.iter
    (fun s ->
      Format.printf "  %a served %d requests (utilization %.0f%%)@."
        Id.pp (Sharedfs.Server.id s)
        (Sharedfs.Server.completed s)
        (100.0 *. Sharedfs.Server.utilization s ~until:duration))
    (Sharedfs.Cluster.servers cluster)
