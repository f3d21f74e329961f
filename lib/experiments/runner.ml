module Id = Sharedfs.Server_id

type event_action =
  | Fail of int
  | Recover of int
  | Add of int * float
  | Set_speed of int * float
  | Delegate_crash
  | Decommission of int

type event = { at : float; action : event_action }

(* Seconds a decommissioned server stays up after its sets were
   re-addressed, so the clean drain (flush-based moves) can finish
   before the machine actually goes away. *)
let decommission_grace = 30.0

type result = {
  label : string;
  policy_name : string;
  duration : float;
  server_series : (int * Desim.Timeseries.point list) list;
  per_server_mean : (int * float) list;
  per_server_requests : (int * int) list;
  utilizations : (int * float) list;
  overall_mean : float;
  overall_p95 : float;
  overall_max : float;
  submitted : int;
  completed : int;
  moves : Sharedfs.Cluster.move_record list;
  reconfig_rounds : int;
  sim_events : int;
  sim_wall_seconds : float;
  sim_peak_pending : int;
  metrics : Obs.Metrics.snapshot option;
  telemetry : Obs.Telemetry.snapshot option;
  violations : (float * string) list;
}

type throughput = {
  events : int;
  engine_wall_seconds : float;
  events_per_second : float;
}

(* The one place engine throughput is computed: perf JSON, the bench
   CLI banner and the stream bench all call this, so the numbers they
   print can never diverge. *)
let throughput results =
  let events, engine_wall_seconds =
    List.fold_left
      (fun (events, wall) r -> (events + r.sim_events, wall +. r.sim_wall_seconds))
      (0, 0.0) results
  in
  {
    events;
    engine_wall_seconds;
    events_per_second =
      (if engine_wall_seconds > 0.0 then
         float_of_int events /. engine_wall_seconds
       else 0.0);
  }

(* Apply the policy's current addressing: diff against what the
   cluster believes and issue the moves, in name order.  Returns how
   many file sets changed owner (the size of the re-addressing
   sweep). *)
let reconcile cluster policy names =
  List.fold_left
    (fun moved name ->
      let want = policy.Placement.Policy.locate name in
      match Sharedfs.Cluster.owner cluster name with
      | Some have when Id.equal have want -> moved
      | Some _ | None ->
        Sharedfs.Cluster.move cluster ~file_set:name ~dst:want;
        moved + 1)
    0 names

(* Prescient oracle: a second, independent cursor over the same
   stream.  Each forced window sweeps the cursor across [lo, hi),
   accumulating effective demand per file set in stream order — the
   same additions in the same order as [Trace.window_demand], so the
   answers are float-identical.  Rounds force windows in time order
   (and contiguously), so one pass suffices; nothing is built unless
   a policy actually forces the lazy (only prescient does). *)
let make_future_demand stream names =
  let fs_names = Array.of_list names in
  let oracle = lazy (Workload.Stream.start stream) in
  let oracle_pending = ref None in
  let window_acc = Array.make (Stdlib.max 1 (Array.length fs_names)) 0.0 in
  let window_seen = Array.make (Stdlib.max 1 (Array.length fs_names)) false in
  fun ~lo ~hi ->
    lazy
      (let cursor = Lazy.force oracle in
       let touched = ref [] in
       let next () =
         match !oracle_pending with
         | Some _ as it ->
           oracle_pending := None;
           it
         | None -> cursor ()
       in
       let rec sweep () =
         match next () with
         | None -> ()
         | Some it ->
           if it.Workload.Stream.time >= hi then oracle_pending := Some it
           else begin
             (if it.Workload.Stream.time >= lo then begin
                let fs = it.Workload.Stream.fs in
                if not window_seen.(fs) then begin
                  window_seen.(fs) <- true;
                  touched := fs :: !touched
                end;
                window_acc.(fs) <-
                  window_acc.(fs)
                  +. it.Workload.Stream.demand
                     *. Sharedfs.Request.demand_factor
                          it.Workload.Stream.request.Sharedfs.Request.op
              end);
             sweep ()
           end
       in
       sweep ();
       let out =
         List.map (fun fs -> (fs_names.(fs), window_acc.(fs))) !touched
       in
       List.iter
         (fun fs ->
           window_acc.(fs) <- 0.0;
           window_seen.(fs) <- false)
         !touched;
       List.sort (fun (a, _) (b, _) -> String.compare a b) out)

(* Fold the per-file-set summaries in file-set {e name} order — an
   order independent of the stream's id numbering ([of_trace] assigns
   ids by first appearance, generators by declaration), so a trace
   and a generator of the same workload produce bit-identical overall
   numbers. *)
let merge_latency ~names ~nfs lat_m lat_q =
  let merge_order = Array.init nfs (fun i -> i) in
  let names_arr = Array.of_list names in
  if Array.length names_arr = nfs then
    Array.sort
      (fun a b -> String.compare names_arr.(a) names_arr.(b))
      merge_order;
  let lat_moments = ref lat_m.(merge_order.(0)) in
  let lat_quantile = ref lat_q.(merge_order.(0)) in
  for i = 1 to nfs - 1 do
    lat_moments := Desim.Welford.merge !lat_moments lat_m.(merge_order.(i));
    lat_quantile :=
      Desim.Stat.Quantile.merge !lat_quantile lat_q.(merge_order.(i))
  done;
  (!lat_moments, !lat_quantile)

let run_stream_serial scenario spec ~stream ~events ~obs ?faults
    ?check_invariants ?invariant_extra ?(light_invariants = false) ?disk
    ?restore ?on_sim_created ?on_cluster ?on_request_complete () =
  let sim = Desim.Sim.create () in
  Option.iter (fun f -> f sim) on_sim_created;
  let disk =
    match disk with Some d -> d | None -> Sharedfs.Shared_disk.create ()
  in
  let names = Workload.Stream.file_sets stream in
  let catalog = Sharedfs.File_set.Catalog.create names in
  let servers =
    List.map (fun (id, s) -> (Id.of_int id, s)) scenario.Scenario.servers
  in
  let cluster =
    Sharedfs.Cluster.create sim ~disk ~catalog
      ~move_config:scenario.Scenario.move_config
      ?cache_config:scenario.Scenario.cache_config
      ~series_interval:scenario.Scenario.series_interval ~servers
      ?topology:scenario.Scenario.topology ~obs ()
  in
  Option.iter (fun f -> f cluster) on_cluster;
  (* The root span: everything else in the trace nests (directly or
     causally) under the run.  Deterministic id 1 when tracing. *)
  let run_span =
    Obs.Span.begin_ obs ~time:0.0 ~name:"run" ~cat:"run" ()
  in
  let emit_rehash ~time ~trigger moved =
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Rehash_round
           { time; trigger; checked = List.length names; moved })
  in
  let policy = Scenario.make_policy spec ~scenario ~file_sets:names in
  let duration = Workload.Stream.duration stream in
  let interval = scenario.Scenario.reconfig_interval in
  (* Latency summary without retained samples: exact mean/max via
     Welford, log-binned p95 — what keeps a 10M-request run in
     constant memory.  Accumulated per file set and merged in name
     order at the end ([merge_latency]). *)
  let nfs = Stdlib.max 1 (List.length names) in
  let lat_m = Array.init nfs (fun _ -> Desim.Welford.create ()) in
  let lat_q = Array.init nfs (fun _ -> Desim.Stat.Quantile.create ()) in
  let completed = ref 0 in
  let record_latency fs latency =
    incr completed;
    Desim.Welford.add lat_m.(fs) latency;
    Desim.Stat.Quantile.add lat_q.(fs) latency
  in
  let reconfig_rounds = ref 0 in
  (* Chaos plumbing.  Invariants are checked after every round and
     membership event by default exactly when faults are injected;
     [check_invariants] overrides either way. *)
  let do_check =
    match check_invariants with
    | Some b -> b
    | None -> Option.is_some faults
  in
  let violations = ref [] in
  let bump name =
    match Obs.Ctx.metrics obs with
    | None -> ()
    | Some m -> Obs.Metrics.Counter.incr (Obs.Metrics.counter m name)
  in
  let record v =
    violations :=
      (v.Fault.Invariants.time, v.Fault.Invariants.what) :: !violations;
    bump "invariants.violations";
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Invariant_violation
           { time = v.Fault.Invariants.time; what = v.Fault.Invariants.what })
  in
  (* Light mode keeps a delta-maintained accumulator for the per-round
     checks: rounds cost O(changed servers) instead of a full cluster
     walk, which is what makes checked 10k-server runs affordable.
     Membership events (rare) still run the full oracle check and
     resync the accumulator. *)
  let inv_acc =
    if do_check && light_invariants then
      Some (Fault.Invariants.Acc.create ~cluster ~policy ())
    else None
  in
  let check_now () =
    if do_check then begin
      List.iter record
        (Fault.Invariants.check ?extra:invariant_extra ~cluster ~policy ());
      Option.iter Fault.Invariants.Acc.resync inv_acc
    end
  in
  let check_round () =
    if do_check then
      match inv_acc with
      | Some acc ->
        Fault.Invariants.Acc.round acc;
        List.iter record (Fault.Invariants.Acc.check acc ~cluster)
      | None -> check_now ()
  in
  (match (Obs.Ctx.metrics obs, faults) with
  | Some m, Some _ ->
    (* Pre-register the fault-path counters so a chaos summary can
       read them from the snapshot even when they stayed at zero. *)
    List.iter
      (fun n -> ignore (Obs.Metrics.counter m n))
      [
        "delegate.reelections"; "reports.lost"; "rounds.degraded";
        "rounds.skipped"; "rounds.fenced"; "fence.epoch_bump";
        "fence.write_rejected"; "ledger.torn_writes"; "ledger.replays";
        "ledger.repaired"; "invariants.violations";
      ]
  | _ -> ());
  let emit_membership ~time server change =
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs (Obs.Event.Membership { time; server; change })
  in
  let do_delegate_crash () =
    (* Picking the successor is trivial (lowest alive id); what a crash
       actually costs is whatever non-replicated state the delegate
       held — ANU's divergent-tuning history — plus an epoch bump on
       the on-disk lease, which fences any round the old incumbent
       still had in flight. *)
    policy.Placement.Policy.delegate_crashed ();
    let (_ : int) = Sharedfs.Cluster.reelect_delegate cluster in
    bump "delegate.reelections"
  in
  (* Guarded membership transitions, shared between scripted events
     and the fault injector: crashing a dead server or recovering an
     alive one must be a no-op end to end, or a double-fired fault
     would corrupt the policy's region map. *)
  let do_fail id =
    if
      Sharedfs.Cluster.mem_server cluster id
      && not (Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id))
    then begin
      let now = Desim.Sim.now sim in
      (* If the failed server was the elected delegate, its
         reconfiguration state dies with it; the next delegate runs
         the same protocol from replicated state only. *)
      let was_delegate =
        Sharedfs.Delegate.elect ~alive:(Sharedfs.Cluster.alive_ids cluster)
        = Some id
      in
      let (_ : string list) = Sharedfs.Cluster.fail_server cluster id in
      if was_delegate then do_delegate_crash ();
      policy.Placement.Policy.server_failed id;
      emit_membership ~time:now (Id.to_int id) Obs.Event.Failed;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"fail" moved;
      check_now ()
    end
  in
  let do_recover id =
    if
      Sharedfs.Cluster.mem_server cluster id
      && Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id)
    then begin
      let now = Desim.Sim.now sim in
      Sharedfs.Cluster.recover_server cluster id;
      policy.Placement.Policy.server_added id;
      emit_membership ~time:now (Id.to_int id) Obs.Event.Recovered;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"recover" moved;
      check_now ()
    end
  in
  let emit_partition ~time id ~link ~healed =
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Partition
           {
             time;
             server = Id.to_int id;
             link = (match link with `Cluster -> "cluster" | `Disk -> "disk");
             healed;
           })
  in
  let do_partition id ~link =
    if
      Sharedfs.Cluster.mem_server cluster id
      && (not (Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id)))
      && not (Sharedfs.Cluster.is_partitioned cluster id)
    then begin
      let now = Desim.Sim.now sim in
      let was_delegate =
        Sharedfs.Delegate.elect ~alive:(Sharedfs.Cluster.alive_ids cluster)
        = Some id
      in
      (* Fence first (inside [partition_server]), then re-elect: the
         isolated server may still believe it holds the lease, but its
         writes are already dead on arrival and the epoch bump fences
         whatever round it had in flight. *)
      let (_ : string list) =
        Sharedfs.Cluster.partition_server cluster id ~link
      in
      if was_delegate then do_delegate_crash ();
      policy.Placement.Policy.server_failed id;
      emit_partition ~time:now id ~link ~healed:false;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"partition" moved;
      check_now ()
    end
  in
  let do_heal id =
    if
      Sharedfs.Cluster.mem_server cluster id
      && Sharedfs.Cluster.is_partitioned cluster id
    then begin
      let now = Desim.Sim.now sim in
      let link =
        match
          List.assoc_opt id (Sharedfs.Cluster.partitioned_servers cluster)
        with
        | Some l -> l
        | None -> `Cluster
      in
      (* [recover_server] takes the partition-heal path: unfence,
         drop the stale lease belief, then rejoin cold. *)
      Sharedfs.Cluster.recover_server cluster id;
      policy.Placement.Policy.server_added id;
      emit_partition ~time:now id ~link ~healed:true;
      emit_membership ~time:now (Id.to_int id) Obs.Event.Recovered;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"heal" moved;
      check_now ()
    end
  in
  (* Atomic domain transitions.  Every member changes state first,
     then the policy learns of each departure/arrival, and only then
     does ONE reconcile re-place the orphans — so a file set can never
     be parked on a member the same correlated fault is about to kill —
     followed by ONE invariant sweep.  One delegate re-election covers
     the whole domain even when it held the lease.  Members already in
     the target state are skipped individually, keeping domain faults
     idempotent against overlapping per-server faults. *)
  let do_crash_domain ~domain:_ members =
    let victims =
      List.filter
        (fun id ->
          Sharedfs.Cluster.mem_server cluster id
          && not (Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id)))
        members
    in
    match victims with
    | [] -> ()
    | _ ->
      let now = Desim.Sim.now sim in
      let delegate_dies =
        match
          Sharedfs.Delegate.elect ~alive:(Sharedfs.Cluster.alive_ids cluster)
        with
        | Some d -> List.exists (Id.equal d) victims
        | None -> false
      in
      List.iter
        (fun id ->
          ignore (Sharedfs.Cluster.fail_server cluster id : string list))
        victims;
      if delegate_dies then do_delegate_crash ();
      List.iter (fun id -> policy.Placement.Policy.server_failed id) victims;
      List.iter
        (fun id -> emit_membership ~time:now (Id.to_int id) Obs.Event.Failed)
        victims;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"domain-crash" moved;
      check_now ()
  in
  let do_recover_domain ~domain:_ members =
    let back =
      List.filter
        (fun id ->
          Sharedfs.Cluster.mem_server cluster id
          && Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id))
        members
    in
    match back with
    | [] -> ()
    | _ ->
      let now = Desim.Sim.now sim in
      List.iter (fun id -> Sharedfs.Cluster.recover_server cluster id) back;
      List.iter (fun id -> policy.Placement.Policy.server_added id) back;
      List.iter
        (fun id ->
          emit_membership ~time:now (Id.to_int id) Obs.Event.Recovered)
        back;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"domain-recover" moved;
      check_now ()
  in
  let do_partition_domain ~domain:_ members ~link =
    let victims =
      List.filter
        (fun id ->
          Sharedfs.Cluster.mem_server cluster id
          && (not (Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id)))
          && not (Sharedfs.Cluster.is_partitioned cluster id))
        members
    in
    match victims with
    | [] -> ()
    | _ ->
      let now = Desim.Sim.now sim in
      let delegate_dies =
        match
          Sharedfs.Delegate.elect ~alive:(Sharedfs.Cluster.alive_ids cluster)
        with
        | Some d -> List.exists (Id.equal d) victims
        | None -> false
      in
      (* Fence every member first (inside [partition_server]), then
         re-elect once: the isolated domain may still believe it holds
         the lease, but its writes are already dead on arrival. *)
      List.iter
        (fun id ->
          ignore
            (Sharedfs.Cluster.partition_server cluster id ~link : string list))
        victims;
      if delegate_dies then do_delegate_crash ();
      List.iter (fun id -> policy.Placement.Policy.server_failed id) victims;
      List.iter
        (fun id -> emit_partition ~time:now id ~link ~healed:false)
        victims;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"domain-partition" moved;
      check_now ()
  in
  let do_heal_domain ~domain:_ members =
    let back =
      List.filter
        (fun id ->
          Sharedfs.Cluster.mem_server cluster id
          && Sharedfs.Cluster.is_partitioned cluster id)
        members
    in
    match back with
    | [] -> ()
    | _ ->
      let now = Desim.Sim.now sim in
      let links =
        List.map
          (fun id ->
            match
              List.assoc_opt id (Sharedfs.Cluster.partitioned_servers cluster)
            with
            | Some l -> (id, l)
            | None -> (id, `Cluster))
          back
      in
      List.iter (fun id -> Sharedfs.Cluster.recover_server cluster id) back;
      List.iter (fun id -> policy.Placement.Policy.server_added id) back;
      List.iter
        (fun (id, link) ->
          emit_partition ~time:now id ~link ~healed:true;
          emit_membership ~time:now (Id.to_int id) Obs.Event.Recovered)
        links;
      let moved = reconcile cluster policy names in
      emit_rehash ~time:now ~trigger:"domain-heal" moved;
      check_now ()
  in
  let injector =
    Option.map
      (fun plan ->
        Fault.Injector.arm ~sim ~cluster ~obs ~duration
          ~actions:
            {
              Fault.Injector.crash_server = do_fail;
              recover_server = do_recover;
              crash_delegate = do_delegate_crash;
              partition_server = do_partition;
              heal_server = do_heal;
              crash_domain = do_crash_domain;
              recover_domain = do_recover_domain;
              partition_domain = do_partition_domain;
              heal_domain = do_heal_domain;
            }
          plan)
      faults
  in
  let crash_rounds =
    match faults with
    | None -> []
    | Some plan -> Fault.Plan.delegate_crash_rounds plan
  in
  let future_demand = make_future_demand stream names in
  (* Time-zero delegate round: no latencies yet, but the prescient
     oracle sees the first interval and starts balanced. *)
  policy.Placement.Policy.rebalance
    {
      Placement.Policy.time = 0.0;
      reports = [];
      future_demand = future_demand ~lo:0.0 ~hi:interval;
    };
  (match restore with
  | None ->
    Sharedfs.Cluster.assign_initial cluster
      (Placement.Policy.assignment_of policy names);
    (* Chaos runs establish the delegate lease at time zero, so a fault
       landing before the first round already finds an incumbent to
       fence.  Fault-free runs never touch the lease (byte-identical
       traces to the pre-lease engine). *)
    if Option.is_some injector then
      ignore (Sharedfs.Cluster.ensure_delegate cluster : int)
  | Some (owned, orphaned) ->
    (* Post-crash resumption: the time-zero placement comes from the
       surviving ledger, not the policy.  Forced re-election (never
       renewal) bumps the epoch past everything the dead incarnation
       journaled — its lease can look unexpired to a clock that
       restarted at zero — and one reconcile sweep then lets the fresh
       policy adopt the orphans and re-address the survivors through
       the ordinary journaled move path. *)
    let (_ : int * int) =
      Sharedfs.Cluster.restore_recovered cluster ~owned ~orphaned
    in
    ignore (Sharedfs.Cluster.reelect_delegate cluster : int);
    let moved = reconcile cluster policy names in
    emit_rehash ~time:0.0 ~trigger:"recovery" moved;
    check_now ());
  (* The streaming driver has two arrival paths.  The default is a
     self-re-arming cursor event: only the next not-yet-due request
     occupies the heap, so heap occupancy is O(streams + inflight) —
     never O(requests).  When nothing wants per-request hooks (no
     faults, no scripted events, no tracing/metrics/telemetry, no
     [on_request_complete], no invariant sweeps) and the stream offers
     a column cursor, the driver switches to the allocation-free path:
     requests live as column rows fed to the engine as an external
     ordered source ({!Desim.Sim.set_source}) — arrivals never occupy
     the heap at all, so the heap holds only completions and timers —
     and completions report to a sink instead of a per-request
     closure.  Same dispatch times, same counted events, no
     per-request allocation or heap traffic. *)
  let fast_path =
    Option.is_none faults && events = []
    && Option.is_none on_request_complete
    && (not do_check)
    && Option.is_none restore
    && (not (Obs.Ctx.tracing obs))
    && Option.is_none (Obs.Ctx.metrics obs)
    && Option.is_none (Obs.Ctx.telemetry obs)
  in
  let batch = if fast_path then Workload.Stream.start_batch stream else None in
  (match batch with
  | Some batch ->
    Sharedfs.Cluster.set_stream_sink cluster (fun ~fs ~latency ->
        record_latency fs latency);
    let cols = Workload.Stream.make_cols 64 in
    let next = [| Float.infinity |] in
    let idx = ref 0 in
    let cnt = ref 0 in
    let refill () =
      let n = batch cols in
      cnt := n;
      idx := 0;
      next.(0) <-
        (if n > 0 then cols.Workload.Stream.times.(0) else Float.infinity)
    in
    let fire () =
      let i = !idx in
      let fs = cols.Workload.Stream.fs.(i) in
      let op = cols.Workload.Stream.ops.(i) in
      let path_hash = cols.Workload.Stream.path.(i) in
      let client = cols.Workload.Stream.client.(i) in
      let demand = cols.Workload.Stream.demand.(i) in
      idx := i + 1;
      (* Advance the cursor before submitting (mirroring the event
         path's arm-next-then-submit order); the row was copied out
         above, so overwriting the columns on refill is safe. *)
      if !idx = !cnt then refill ()
      else next.(0) <- cols.Workload.Stream.times.(!idx);
      Sharedfs.Cluster.submit_stream cluster ~fs ~op ~base_demand:demand
        ~path_hash ~client
    in
    refill ();
    Desim.Sim.set_source sim ~next ~fire
  | None ->
    let arrivals = Workload.Stream.start stream in
    let submit (it : Workload.Stream.item) =
      Sharedfs.Cluster.submit_fs cluster ~fs:it.Workload.Stream.fs
        ~base_demand:it.Workload.Stream.demand it.Workload.Stream.request
        ~on_complete:(fun ~latency ->
          record_latency it.Workload.Stream.fs latency;
          match on_request_complete with
          | None -> ()
          | Some f ->
            f
              {
                Workload.Trace.time = it.Workload.Stream.time;
                request = it.Workload.Stream.request;
                demand = it.Workload.Stream.demand;
              }
              ~latency)
    in
    let rec arm_arrival (it : Workload.Stream.item) =
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:it.Workload.Stream.time (fun () ->
            (match arrivals () with
            | Some next -> arm_arrival next
            | None -> ());
            submit it)
      in
      ()
    in
    (match arrivals () with Some first -> arm_arrival first | None -> ()));
  (* Delegate rounds at every interval boundary within the trace; each
     round arms the next, so at most one round event is pending. *)
  let rounds = int_of_float (Float.floor (duration /. interval)) in
  let apply_round ?(parent = Obs.Span.none) ~at ~round reports =
    (* Tune and apply are instantaneous in virtual time (the policy
       decides and the moves are issued at the decision instant); their
       spans are zero-width but keep the round's causal structure —
       the moves they issue open their own spans in the cluster. *)
    let now = Desim.Sim.now sim in
    let tspan =
      Obs.Span.begin_ obs ~time:now ~parent ~name:"tune" ~cat:"round" ()
    in
    policy.Placement.Policy.rebalance
      {
        Placement.Policy.time = at;
        reports;
        future_demand = future_demand ~lo:at ~hi:(at +. interval);
      };
    Obs.Span.end_ obs ~time:now ~id:tspan ~name:"tune" ~cat:"round" ();
    let aspan =
      Obs.Span.begin_ obs ~time:now ~parent ~name:"apply" ~cat:"round" ()
    in
    let moved = reconcile cluster policy names in
    Obs.Span.end_ obs ~time:now ~id:aspan ~name:"apply" ~cat:"round" ();
    if Obs.Ctx.tracing obs then begin
      Obs.Ctx.emit obs
        (Sharedfs.Delegate.round_event cluster ~time:at ~round
           ~average:(Sharedfs.Delegate.mean_latency reports)
           ~regions:(policy.Placement.Policy.regions ())
           reports);
      emit_rehash ~time:at ~trigger:"delegate-round" moved
    end;
    check_round ()
  in
  let rec arm_round k =
    if k <= rounds then begin
      let at = float_of_int k *. interval in
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:at (fun () ->
            arm_round (k + 1);
            incr reconfig_rounds;
            let round = !reconfig_rounds in
            (* The round span is epoch-tagged: in fault-free runs the
               lease is never established and the in-memory epoch stays
               0; under chaos it carries the lease epoch the round ran
               under, which is exactly what fencing forensics needs. *)
            let rspan =
              Obs.Span.begin_ obs ~time:at ~parent:run_span ~name:"round"
                ~cat:"round"
                ~epoch:
                  (Sharedfs.Ledger.current_epoch
                     (Sharedfs.Cluster.ledger cluster))
                ()
            in
            let cspan =
              Obs.Span.begin_ obs ~time:at ~parent:rspan ~name:"collect"
                ~cat:"round" ()
            in
            let end_collect () =
              Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:cspan
                ~name:"collect" ~cat:"round" ()
            in
            let end_round outcome =
              Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:rspan
                ~name:"round" ~cat:"round" ~outcome ()
            in
            match injector with
            | None ->
              (* Fault-free fast path: synchronous collection, exactly
                 the pre-chaos behaviour (and byte-identical traces). *)
              let reports = Sharedfs.Delegate.collect cluster in
              end_collect ();
              apply_round ~parent:rspan ~at ~round reports;
              end_round "applied"
            | Some inj ->
              let plan = Option.get faults in
              let timeout = Fault.Plan.timeout plan in
              (* The round runs under the lease epoch it started with;
                 the decision only lands if that epoch still stands
                 when the reports are in.  Jitter draws come from a
                 per-round generator derived from the plan seed, so a
                 chaos run stays byte-replayable. *)
              let epoch_at_start = Sharedfs.Cluster.ensure_delegate cluster in
              let rng =
                Desim.Rng.create
                  ((Fault.Plan.seed plan * 1_000_003) + round)
              in
              let emit_degraded ~missing ~survivors ~skipped =
                if Obs.Ctx.tracing obs then
                  Obs.Ctx.emit obs
                    (Obs.Event.Round_degraded
                       {
                         time = at;
                         round;
                         missing = List.map Id.to_int missing;
                         survivors;
                         skipped;
                       })
              in
              Sharedfs.Delegate.collect_async cluster ~rng ~timeout
                ~fate:(fun ~server ~attempt ->
                  Fault.Injector.fate inj ~round ~server ~attempt)
                ~k:(fun outcome ->
                  end_collect ();
                  if List.mem round crash_rounds then begin
                    (* The delegate dies after collecting but before
                       deciding: the reports (and its divergent-tuning
                       history) die with it, the next delegate takes
                       over from replicated state, and this round tunes
                       nothing.  Re-placement still runs so orphans
                       heal. *)
                    Fault.Injector.note_delegate_crash inj;
                    let moved = reconcile cluster policy names in
                    emit_rehash ~time:at ~trigger:"delegate-crash" moved;
                    check_now ();
                    end_round "delegate-crash"
                  end
                  else if Sharedfs.Cluster.ensure_delegate cluster
                          <> epoch_at_start
                  then begin
                    (* The lease changed hands while reports were in
                       flight (the incumbent was partitioned or
                       crashed): the round's decision is fenced —
                       discarded, never applied — but orphan healing
                       still runs under the new epoch. *)
                    bump "rounds.fenced";
                    let moved = reconcile cluster policy names in
                    emit_rehash ~time:at ~trigger:"round-fenced" moved;
                    check_now ();
                    end_round "fenced"
                  end
                  else
                    match outcome with
                    | Sharedfs.Delegate.Round_complete reports ->
                      apply_round ~parent:rspan ~at ~round reports;
                      end_round "applied"
                    | Sharedfs.Delegate.Round_degraded { reports; missing } ->
                      (* A quorum reported: average over the survivors
                         rather than wait for the dead. *)
                      bump "rounds.degraded";
                      emit_degraded ~missing
                        ~survivors:(List.length reports)
                        ~skipped:false;
                      apply_round ~parent:rspan ~at ~round reports;
                      end_round "degraded"
                    | Sharedfs.Delegate.Round_skipped { missing } ->
                      (* Below quorum: tuning on so little data would be
                         tuning on garbage, so the round decides
                         nothing.  Orphan healing must not wait for the
                         next healthy round, though. *)
                      bump "rounds.skipped";
                      emit_degraded ~missing ~survivors:0 ~skipped:true;
                      let moved = reconcile cluster policy names in
                      emit_rehash ~time:at ~trigger:"round-skipped" moved;
                      check_now ();
                      end_round "skipped"))
      in
      ()
    end
  in
  arm_round 1;
  (* Scripted membership changes. *)
  List.iter
    (fun { at; action } ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:at (fun () ->
            match action with
            | Fail raw -> do_fail (Id.of_int raw)
            | Recover raw -> do_recover (Id.of_int raw)
            | Add (raw, speed) ->
              let id = Id.of_int raw in
              Sharedfs.Cluster.add_server cluster id ~speed;
              policy.Placement.Policy.server_added id;
              emit_membership ~time:at raw (Obs.Event.Added speed);
              let moved = reconcile cluster policy names in
              emit_rehash ~time:at ~trigger:"add" moved;
              check_now ()
            | Set_speed (raw, speed) ->
              Sharedfs.Server.set_speed
                (Sharedfs.Cluster.server cluster (Id.of_int raw))
                speed;
              emit_membership ~time:at raw (Obs.Event.Speed_changed speed)
            | Delegate_crash -> do_delegate_crash ()
            | Decommission raw ->
              let id = Id.of_int raw in
              if
                Sharedfs.Cluster.mem_server cluster id
                && not
                     (Sharedfs.Server.failed
                        (Sharedfs.Cluster.server cluster id))
              then begin
                (* Planned removal: re-address first while the server
                   is still up, so its sets leave by the cheap flush
                   path instead of orphan recovery; the machine only
                   goes away after a drain grace period. *)
                policy.Placement.Policy.server_failed id;
                emit_membership ~time:at raw Obs.Event.Decommissioned;
                let moved = reconcile cluster policy names in
                emit_rehash ~time:at ~trigger:"decommission" moved;
                check_now ();
                let (_ : Desim.Sim.handle) =
                  Desim.Sim.schedule sim ~delay:decommission_grace
                    (fun () ->
                      if
                        not
                          (Sharedfs.Server.failed
                             (Sharedfs.Cluster.server cluster id))
                      then begin
                        (* Anything that failed to drain in time goes
                           down the crash path and heals as an
                           orphan. *)
                        let (_ : string list) =
                          Sharedfs.Cluster.fail_server cluster id
                        in
                        let moved = reconcile cluster policy names in
                        emit_rehash ~time:(Desim.Sim.now sim)
                          ~trigger:"decommission-final" moved
                      end;
                      check_now ())
                in
                ()
              end)
      in
      ())
    events;
  (* Run to completion: every queued request eventually drains. *)
  let profile = Desim.Sim.run_profiled sim in
  let end_time = Float.max duration (Desim.Sim.now sim) in
  Obs.Span.end_ obs ~time:end_time ~id:run_span ~name:"run" ~cat:"run" ();
  let all_servers = Sharedfs.Cluster.servers cluster in
  let server_series =
    List.map
      (fun s ->
        ( Id.to_int (Sharedfs.Server.id s),
          Sharedfs.Server.series s ~until:duration ))
      all_servers
  in
  let per_server_mean =
    List.map
      (fun (id, points) ->
        let pairs =
          List.map
            (fun p ->
              (p.Desim.Timeseries.mean, float_of_int p.Desim.Timeseries.count))
            points
        in
        (id, Desim.Stat.weighted_mean pairs))
      server_series
  in
  let per_server_requests =
    List.map
      (fun (id, points) ->
        ( id,
          List.fold_left
            (fun acc p -> acc + p.Desim.Timeseries.count)
            0 points ))
      server_series
  in
  let utilizations =
    List.map
      (fun s ->
        ( Id.to_int (Sharedfs.Server.id s),
          Sharedfs.Server.utilization s ~until:end_time ))
      all_servers
  in
  let lat_moments, lat_quantile = merge_latency ~names ~nfs lat_m lat_q in
  {
    label = scenario.Scenario.label;
    policy_name = policy.Placement.Policy.name;
    duration;
    server_series;
    per_server_mean;
    per_server_requests;
    utilizations;
    overall_mean = Desim.Welford.mean lat_moments;
    overall_p95 =
      (if Desim.Stat.Quantile.count lat_quantile = 0 then 0.0
       else Desim.Stat.Quantile.percentile lat_quantile 95.0);
    overall_max =
      (if Desim.Welford.count lat_moments = 0 then 0.0
       else Desim.Welford.max_value lat_moments);
    submitted = Workload.Stream.total stream;
    completed = !completed;
    moves = Sharedfs.Cluster.moves cluster;
    reconfig_rounds = !reconfig_rounds;
    sim_events = profile.Desim.Sim.fired;
    sim_wall_seconds = profile.Desim.Sim.wall_seconds;
    sim_peak_pending = Desim.Sim.peak_pending sim;
    metrics = Obs.Ctx.snapshot obs;
    telemetry =
      Option.map
        (fun tl -> Obs.Telemetry.snapshot tl ~until:end_time)
        (Obs.Ctx.telemetry obs);
    violations = List.rev !violations;
  }

let run_stream scenario spec ~stream ?(events = []) ?(obs = Obs.Ctx.null)
    ?faults ?check_invariants ?invariant_extra ?light_invariants
    ?on_sim_created ?on_cluster ?on_request_complete () =
  (* One figure runs several simulations, possibly concurrently (one
     per domain): derive a per-run context with a fresh metrics
     registry so the snapshot attached to this result covers exactly
     this run and no instrument is shared across domains. *)
  let obs = Obs.Ctx.isolated obs in
  run_stream_serial scenario spec ~stream ~events ~obs ?faults
    ?check_invariants ?invariant_extra ?light_invariants ?on_sim_created
    ?on_cluster ?on_request_complete ()

let run scenario spec ~trace ?events ?obs ?faults ?check_invariants
    ?invariant_extra ?on_sim_created ?on_cluster ?on_request_complete () =
  run_stream scenario spec ~stream:(Workload.Stream.of_trace trace) ?events
    ?obs ?faults ?check_invariants ?invariant_extra ?on_sim_created ?on_cluster
    ?on_request_complete ()

(* ------------------------------------------------------------------ *)
(* Whole-cluster kill-and-restart                                      *)

exception Killed

type recovery = {
  crashed_at : float;
  crash_op : int option;
  crash_block : int option;
  replay_records : int;
  replay_torn : int;
  recovered_owned : int;
  recovered_orphaned : int;
  recovery_epoch : int;
  fsck : Sharedfs.Cluster.fsck_report;
  resumed : result;
}

type kill_outcome = Ran of result | Recovered of recovery

(* The surviving portion of a stream: an independent stream yielding
   exactly the items strictly after [after], at their original times.
   The restarted simulator's clock begins at zero again, so pre-crash
   arrival times simply never fire; delegate rounds before the crash
   instant fire with empty reports, which tune nothing. *)
let resume_stream stream ~after =
  let surviving cursor =
    let rec next () =
      match cursor () with
      | None -> None
      | Some it -> if it.Workload.Stream.time > after then Some it else next ()
    in
    next
  in
  let total =
    let cursor = surviving (Workload.Stream.start stream) in
    let n = ref 0 in
    let rec count () =
      match cursor () with
      | None -> ()
      | Some _ ->
        incr n;
        count ()
    in
    count ();
    !n
  in
  Workload.Stream.make
    ~duration:(Workload.Stream.duration stream)
    ~total
    ~file_sets:(Workload.Stream.file_sets stream)
    ~fresh:(fun () -> surviving (Workload.Stream.start stream))
    ()

let run_kill_restart scenario spec ~stream ?(events = []) ?(obs = Obs.Ctx.null)
    ?faults ?invariant_extra ?kill_at ?arm ?decision () =
  let disk = Sharedfs.Shared_disk.create () in
  Option.iter (fun f -> f disk) arm;
  let sim_ref = ref None in
  (* Phase 1: run until the hook (or the scheduled kill) pulls the
     plug.  A run that finishes without crashing is reported as [Ran] —
     the sweep's baseline path. *)
  match
    run_stream_serial scenario spec ~stream ~events
      ~obs:(Obs.Ctx.isolated obs) ?faults ~check_invariants:true
      ?invariant_extra ~disk
      ~on_sim_created:(fun sim ->
        sim_ref := Some sim;
        match kill_at with
        | None -> ()
        | Some t ->
          ignore
            (Desim.Sim.schedule_at sim ~time:t (fun () -> raise Killed)
              : Desim.Sim.handle))
      ()
  with
  | result -> Ran result
  | exception ((Sharedfs.Shared_disk.Crashed _ | Killed) as e) ->
    (* Power loss: every server's memory is gone.  The only inputs to
       recovery are the disk image and the (host-side) knowledge of
       the workload; nothing from the dead cluster object crosses this
       line. *)
    Sharedfs.Shared_disk.clear_write_hook disk;
    let crash_op, crash_block =
      match e with
      | Sharedfs.Shared_disk.Crashed { op; block } -> (Some op, Some block)
      | _ -> (None, None)
    in
    let crashed_at =
      match !sim_ref with None -> 0.0 | Some sim -> Desim.Sim.now sim
    in
    let rep = Sharedfs.Ledger.replay disk in
    let decide =
      match decision with
      | Some f -> f
      | None -> Sharedfs.Ledger.recovered_assignment
    in
    let owned, orphaned = decide rep in
    let cluster2 = ref None in
    (* Phase 2: a fresh cluster attaches to the surviving disk —
       [Ledger.attach] inside [Cluster.create] rescans and repairs the
       log, the recovered placement is installed cold, a forced
       re-election fences the dead incarnation — then the surviving
       tail of the workload runs to completion under the invariant
       suite.  The crash consumed the fault plan; the restarted
       cluster runs it no further. *)
    let resumed =
      run_stream_serial scenario spec
        ~stream:(resume_stream stream ~after:crashed_at)
        ~events:[] ~obs:(Obs.Ctx.isolated obs) ~check_invariants:true
        ?invariant_extra ~disk
        ~restore:(owned, orphaned)
        ~on_cluster:(fun c -> cluster2 := Some c)
        ()
    in
    let cluster2 =
      match !cluster2 with Some c -> c | None -> assert false
    in
    Recovered
      {
        crashed_at;
        crash_op;
        crash_block;
        replay_records = List.length rep.Sharedfs.Ledger.records;
        replay_torn = List.length rep.Sharedfs.Ledger.torn_seqs;
        recovered_owned = List.length owned;
        recovered_orphaned = List.length orphaned;
        recovery_epoch =
          Sharedfs.Ledger.current_epoch (Sharedfs.Cluster.ledger cluster2);
        fsck = Sharedfs.Cluster.fsck ~repair:false cluster2;
        resumed;
      }

let buckets_after result ~from_ =
  List.map
    (fun (id, points) ->
      ( id,
        List.filter
          (fun p -> p.Desim.Timeseries.bucket_start >= from_)
          points ))
    result.server_series

let converged_imbalance result ~from_ =
  let per_server =
    buckets_after result ~from_
    |> List.filter_map (fun (_, points) ->
           let pairs =
             List.map
               (fun p ->
                 ( p.Desim.Timeseries.mean,
                   float_of_int p.Desim.Timeseries.count ))
               points
           in
           let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
           if total > 0.0 then Some (Desim.Stat.weighted_mean pairs) else None)
  in
  Desim.Stat.imbalance per_server

let mean_after result ~from_ =
  let pairs =
    buckets_after result ~from_
    |> List.concat_map (fun (_, points) ->
           List.map
             (fun p ->
               (p.Desim.Timeseries.mean, float_of_int p.Desim.Timeseries.count))
             points)
  in
  Desim.Stat.weighted_mean pairs
