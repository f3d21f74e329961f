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

type invariants = [ `Off | `Full | `Light ]

(* The invariant checker, built once per run: what runs after each
   delegate round and what runs after each membership change.  [`Light]
   keeps a delta-maintained accumulator for the rounds, O(changed
   servers) instead of a full cluster walk, which is what makes checked
   10k-server runs affordable; membership changes (rare) still run the
   full oracle and resync the accumulator. *)
type checks = { after_round : unit -> unit; after_membership : unit -> unit }

let checks invariants ~cluster ~policy ?extra record =
  let full () =
    List.iter record (Fault.Invariants.check ?extra ~cluster ~policy ())
  in
  match invariants with
  | `Off -> { after_round = ignore; after_membership = ignore }
  | `Full -> { after_round = full; after_membership = full }
  | `Light ->
    let acc = Fault.Invariants.Acc.create ~cluster ~policy () in
    {
      after_round =
        (fun () ->
          Fault.Invariants.Acc.round acc;
          List.iter record (Fault.Invariants.Acc.check acc ~cluster));
      after_membership =
        (fun () ->
          full ();
          Fault.Invariants.Acc.resync acc);
    }

(* Arrivals are column rows fed to the engine as an external ordered
   source ({!Desim.Sim.set_source}): they never occupy the heap, so it
   holds only completions and timers, and the cluster keeps each
   request's state in a reused slot whose completion reports to the
   sink. *)
let feed_arrivals sim cluster stream =
  let batch =
    match Workload.Stream.start_batch stream with
    | Some batch -> batch
    | None -> assert false (* [Stream.make] derives one when none is given *)
  in
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
    (* Advance the cursor before submitting; the row was copied out
       above, so overwriting the columns on refill is safe. *)
    if !idx = !cnt then refill ()
    else next.(0) <- cols.Workload.Stream.times.(!idx);
    Sharedfs.Cluster.submit cluster ~fs ~op ~base_demand:demand ~path_hash
      ~client
  in
  refill ();
  Desim.Sim.set_source sim ~next ~fire

(* The trigger a membership sweep is traced under: the solo name, or
   the domain name when the fault took a whole failure domain. *)
let trigger_of ~domain (solo, grouped) =
  match domain with None -> solo | Some _ -> grouped

(* The one run driver.  Its parts: the cluster and policy, the checker
   ([checks]), the re-addressing step every change ends in ([rehome]),
   the membership transitions shared by scripted events and the fault
   injector, the delegate round, and the arrival source
   ([feed_arrivals]).  [disk] and [restore] are the kill-and-restart
   driver's: a caller-visible disk, and a placement recovered from it.
   Invariants are checked by default exactly when faults are injected. *)
let simulate scenario spec ~stream ~events ~obs ?faults
    ?(invariants = if Option.is_some faults then `Full else `Off)
    ?invariant_extra ?disk ?restore ?on_sim_created ?on_cluster
    ?on_request_complete () =
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
  let checks =
    checks invariants ~cluster ~policy ?extra:invariant_extra record
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
  (* The one re-addressing step every change ends in: issue the moves
     the policy's current addressing asks for, trace the sweep, then
     check.  A round passes its apply stage, which closes once the
     moves are issued, and its own check. *)
  let rehome ?(stage = Obs.Span.none) ?(check = checks.after_membership) ~time
      ~trigger () =
    let moved = reconcile cluster policy names in
    Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:stage ~name:"apply"
      ~cat:"round" ();
    if Obs.Ctx.tracing obs then
      Obs.Ctx.emit obs
        (Obs.Event.Rehash_round
           { time; trigger; checked = List.length names; moved });
    check ()
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
     and the fault injector.  Each takes the members of one fault — a
     single server ([~domain:None]) or every server of a failure
     domain — and is atomic: every member changes state first, then
     the policy learns of each departure or arrival, and only then
     does ONE rehome re-place the orphans — so a file set can never be
     parked on a member the same correlated fault is about to kill.
     One delegate re-election covers the whole fault even when a
     member held the lease.  Members not in the source state are
     skipped individually, so crashing a dead server or recovering an
     alive one is a no-op end to end, and a double-fired fault cannot
     corrupt the policy's region map. *)
  let failed id = Sharedfs.Server.failed (Sharedfs.Cluster.server cluster id) in
  let partitioned id = Sharedfs.Cluster.is_partitioned cluster id in
  let alive id = Sharedfs.Cluster.mem_server cluster id && not (failed id) in
  (* A crash or a partition: the alive members that [qualify] are taken
     down; if one held the lease, its reconfiguration state dies with
     it and the next delegate runs the same protocol from replicated
     state only. *)
  let depart ~qualify ~take_down ?announce triggers ~domain members =
    match List.filter (fun id -> alive id && qualify id) members with
    | [] -> ()
    | victims ->
      let now = Desim.Sim.now sim in
      let delegate_dies =
        match
          Sharedfs.Delegate.elect ~alive:(Sharedfs.Cluster.alive_ids cluster)
        with
        | Some d -> List.exists (Id.equal d) victims
        | None -> false
      in
      List.iter take_down victims;
      if delegate_dies then do_delegate_crash ();
      List.iter (fun id -> policy.Placement.Policy.server_failed id) victims;
      Option.iter
        (fun change ->
          List.iter
            (fun id -> emit_membership ~time:now (Id.to_int id) change)
            victims)
        announce;
      rehome ~time:now ~trigger:(trigger_of ~domain triggers) ()
  in
  (* A recovery or a heal: the members that [qualify] rejoin cold
     ([recover_server] also takes the partition-heal path: unfence,
     drop the stale lease belief, rejoin). *)
  let rejoin ~qualify triggers ~domain members =
    match
      List.filter
        (fun id -> Sharedfs.Cluster.mem_server cluster id && qualify id)
        members
    with
    | [] -> ()
    | back ->
      let now = Desim.Sim.now sim in
      List.iter (fun id -> Sharedfs.Cluster.recover_server cluster id) back;
      List.iter (fun id -> policy.Placement.Policy.server_added id) back;
      List.iter
        (fun id ->
          emit_membership ~time:now (Id.to_int id) Obs.Event.Recovered)
        back;
      rehome ~time:now ~trigger:(trigger_of ~domain triggers) ()
  in
  let do_crash =
    depart ~qualify:(fun _ -> true)
      ~take_down:(fun id ->
        ignore (Sharedfs.Cluster.fail_server cluster id : string list))
      ~announce:Obs.Event.Failed ("fail", "domain-crash")
  in
  (* Fencing happens inside [partition_server], before the one
     re-election: the isolated servers may still believe they hold the
     lease, but their writes are already dead on arrival and the epoch
     bump fences whatever round they had in flight. *)
  let do_partition ~domain members ~link =
    depart
      ~qualify:(fun id -> not (partitioned id))
      ~take_down:(fun id ->
        ignore
          (Sharedfs.Cluster.partition_server cluster id ~link : string list))
      ("partition", "domain-partition") ~domain members
  in
  let do_recover = rejoin ~qualify:failed ("recover", "domain-recover") in
  let do_heal = rejoin ~qualify:partitioned ("heal", "domain-heal") in
  let injector =
    Option.map
      (fun plan ->
        ( Fault.Injector.arm ~sim ~cluster ~obs ~duration
            ~actions:
              {
                Fault.Injector.crash = do_crash;
                recover = do_recover;
                crash_delegate = do_delegate_crash;
                partition = do_partition;
                heal = do_heal;
              }
            plan,
          plan ))
      faults
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
       restarted at zero — and one rehome then lets the fresh policy
       adopt the orphans and re-address the survivors through the
       ordinary journaled move path. *)
    let (_ : int * int) =
      Sharedfs.Cluster.restore_recovered cluster ~owned ~orphaned
    in
    ignore (Sharedfs.Cluster.reelect_delegate cluster : int);
    rehome ~time:0.0 ~trigger:"recovery" ());
  let sink =
    match on_request_complete with
    | None ->
      fun ~fs ~op:_ ~path_hash:_ ~client:_ ~latency -> record_latency fs latency
    | Some f ->
      fun ~fs ~op ~path_hash ~client ~latency ->
        record_latency fs latency;
        f ~fs ~op ~path_hash ~client ~latency
  in
  Sharedfs.Cluster.set_sink cluster sink;
  feed_arrivals sim cluster stream;
  (* Tune and apply are instantaneous in virtual time (the policy
     decides and the moves are issued at the decision instant); their
     spans are zero-width but keep the round's causal structure — the
     moves they issue open their own spans in the cluster. *)
  let apply_round ~parent ~at reports =
    let now = Desim.Sim.now sim in
    let tracing = Obs.Ctx.tracing obs in
    (* The tune span opens with what the round consumes, every
       server's report with the queue depth seen at collection and the
       average, and closes with the regions it produced. *)
    let tspan =
      Obs.Span.begin_ obs ~time:now ~parent ~name:"tune" ~cat:"round"
        ~attrs:
          (if not tracing then []
           else
             Obs.Event.
               [
                 Average (Sharedfs.Delegate.mean_latency reports);
                 Inputs
                   (List.map
                      (fun (r : Sharedfs.Delegate.server_report) ->
                        {
                          server = Id.to_int r.server;
                          mean_latency = r.report.Sharedfs.Server.mean_latency;
                          max_latency = r.report.Sharedfs.Server.max_latency;
                          requests = r.report.Sharedfs.Server.requests;
                          queue_depth =
                            Sharedfs.Server.queue_length
                              (Sharedfs.Cluster.server cluster r.server);
                        })
                      reports);
               ])
        ()
    in
    policy.Placement.Policy.rebalance
      {
        Placement.Policy.time = at;
        reports;
        future_demand = future_demand ~lo:at ~hi:(at +. interval);
      };
    Obs.Span.end_ obs ~time:now ~id:tspan ~name:"tune" ~cat:"round"
      ~attrs:
        (if not tracing then []
         else
           match policy.Placement.Policy.regions () with
           | [] -> []
           | regions ->
             [
               Obs.Event.Regions
                 (List.map (fun (id, measure) -> (Id.to_int id, measure)) regions);
             ])
      ();
    let stage =
      Obs.Span.begin_ obs ~time:now ~parent ~name:"apply" ~cat:"round" ()
    in
    rehome ~stage ~check:checks.after_round ~time:at ~trigger:"delegate-round"
      ()
  in
  (* One delegate round at [at]: collect the servers' reports, then
     settle — apply a complete or quorum round, or re-place orphans
     only.  Without an injector the collection is synchronous; with
     one it is asynchronous over the plan's unreliable report channel,
     and the round can be overruled before it decides: the delegate
     dies mid-round, or the lease changed hands while reports were in
     flight. *)
  (* A round that heard from only some servers ends naming the missing
     ones and how many reports it used. *)
  let shortfall ~missing ~survivors =
    if not (Obs.Ctx.tracing obs) then []
    else
      Obs.Event.[ Missing (List.map Id.to_int missing); Survivors survivors ]
  in
  let delegate_round ~at round =
    (* The round span is epoch-tagged: in fault-free runs the lease is
       never established and the in-memory epoch stays 0; under chaos
       it carries the lease epoch the round ran under, which is exactly
       what fencing forensics needs. *)
    let rspan =
      Obs.Span.begin_ obs ~time:at ~parent:run_span ~name:"round" ~cat:"round"
        ~attrs:(if Obs.Ctx.tracing obs then [ Obs.Event.Round round ] else [])
        ~epoch:(Sharedfs.Ledger.current_epoch (Sharedfs.Cluster.ledger cluster))
        ()
    in
    let cspan =
      Obs.Span.begin_ obs ~time:at ~parent:rspan ~name:"collect" ~cat:"round"
        ()
    in
    let settle ~overruled outcome =
      Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:cspan ~name:"collect"
        ~cat:"round" ();
      let outcome, attrs =
        match overruled () with
        | Some (trigger, outcome) ->
          (* The round decides nothing, but orphan healing still
             runs. *)
          rehome ~time:at ~trigger ();
          (outcome, [])
        | None -> (
          match outcome with
          | Sharedfs.Delegate.Round_complete reports ->
            apply_round ~parent:rspan ~at reports;
            ("applied", [])
          | Sharedfs.Delegate.Round_degraded { reports; missing } ->
            (* A quorum reported: average over the survivors rather
               than wait for the dead. *)
            bump "rounds.degraded";
            apply_round ~parent:rspan ~at reports;
            ("degraded", shortfall ~missing ~survivors:(List.length reports))
          | Sharedfs.Delegate.Round_skipped { missing } ->
            (* Below quorum: tuning on so little data would be tuning
               on garbage, so the round decides nothing.  Orphan
               healing must not wait for the next healthy round,
               though. *)
            bump "rounds.skipped";
            rehome ~time:at ~trigger:"round-skipped" ();
            ("skipped", shortfall ~missing ~survivors:0))
      in
      Obs.Span.end_ obs ~time:(Desim.Sim.now sim) ~id:rspan ~name:"round"
        ~cat:"round" ~outcome ~attrs ()
    in
    match injector with
    | None ->
      settle
        ~overruled:(fun () -> None)
        (Sharedfs.Delegate.Round_complete (Sharedfs.Delegate.collect cluster))
    | Some (inj, plan) ->
      (* The round runs under the lease epoch it started with; the
         decision only lands if that epoch still stands when the
         reports are in.  Jitter draws come from a per-round generator
         derived from the plan seed, so a chaos run stays
         byte-replayable. *)
      let epoch_at_start = Sharedfs.Cluster.ensure_delegate cluster in
      let overruled () =
        if List.mem round (Fault.Plan.delegate_crash_rounds plan) then begin
          (* The delegate dies after collecting but before deciding:
             the reports (and its divergent-tuning history) die with
             it, and the next delegate takes over from replicated
             state. *)
          Fault.Injector.note_delegate_crash inj;
          Some ("delegate-crash", "delegate-crash")
        end
        else if Sharedfs.Cluster.ensure_delegate cluster <> epoch_at_start
        then begin
          (* The incumbent was partitioned or crashed mid-round: its
             decision is fenced, discarded and never applied. *)
          bump "rounds.fenced";
          Some ("round-fenced", "fenced")
        end
        else None
      in
      Sharedfs.Delegate.collect_async cluster
        ~rng:(Desim.Rng.create ((Fault.Plan.seed plan * 1_000_003) + round))
        ~timeout:(Fault.Plan.timeout plan)
        ~fate:(fun ~server ~attempt ->
          Fault.Injector.fate inj ~round ~server ~attempt)
        ~k:(settle ~overruled)
  in
  (* Delegate rounds at every interval boundary within the trace; each
     round arms the next, so at most one round event is pending. *)
  let rounds = int_of_float (Float.floor (duration /. interval)) in
  let rec arm_round k =
    if k <= rounds then begin
      let at = float_of_int k *. interval in
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time:at (fun () ->
            arm_round (k + 1);
            incr reconfig_rounds;
            delegate_round ~at !reconfig_rounds)
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
            | Fail raw -> do_crash ~domain:None [ Id.of_int raw ]
            | Recover raw -> do_recover ~domain:None [ Id.of_int raw ]
            | Add (raw, speed) ->
              let id = Id.of_int raw in
              Sharedfs.Cluster.add_server cluster id ~speed;
              policy.Placement.Policy.server_added id;
              emit_membership ~time:at raw (Obs.Event.Added speed);
              rehome ~time:at ~trigger:"add" ()
            | Set_speed (raw, speed) ->
              Sharedfs.Server.set_speed
                (Sharedfs.Cluster.server cluster (Id.of_int raw))
                speed;
              emit_membership ~time:at raw (Obs.Event.Speed_changed speed)
            | Delegate_crash -> do_delegate_crash ()
            | Decommission raw ->
              let id = Id.of_int raw in
              if alive id then begin
                (* Planned removal: re-address first while the server
                   is still up, so its sets leave by the cheap flush
                   path instead of orphan recovery; the machine only
                   goes away after a drain grace period. *)
                policy.Placement.Policy.server_failed id;
                emit_membership ~time:at raw Obs.Event.Decommissioned;
                rehome ~time:at ~trigger:"decommission" ();
                let (_ : Desim.Sim.handle) =
                  Desim.Sim.schedule sim ~delay:decommission_grace
                    (fun () ->
                      (* Anything that failed to drain in time goes
                         down the crash path and heals as an orphan. *)
                      if not (failed id) then begin
                        let (_ : string list) =
                          Sharedfs.Cluster.fail_server cluster id
                        in
                        rehome ~time:(Desim.Sim.now sim)
                          ~trigger:"decommission-final" ()
                      end
                      else checks.after_membership ())
                in
                ()
              end)
      in
      ())
    events;
  (* Run to completion: every queued request eventually drains. *)
  let profile = Desim.Sim.run_profiled sim in
  (* Detach the arrival source and the completion sink: a caller that
     keeps the cluster (through [on_cluster]) must not also keep the
     stream cursor and the per-file-set latency summaries they hold. *)
  Desim.Sim.clear_source sim;
  Sharedfs.Cluster.clear_sink cluster;
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
    ?faults ?invariants ?invariant_extra ?on_sim_created ?on_cluster
    ?on_request_complete () =
  (* A fresh metrics registry and span-id counter per run, so the
     snapshot attached to this result covers exactly this run. *)
  simulate scenario spec ~stream ~events ~obs:(Obs.Ctx.isolated obs) ?faults
    ?invariants ?invariant_extra ?on_sim_created ?on_cluster
    ?on_request_complete ()

let run scenario spec ~trace ?events ?obs ?faults ?invariants
    ?invariant_extra ?on_sim_created ?on_cluster ?on_request_complete () =
  run_stream scenario spec ~stream:(Workload.Stream.of_trace trace) ?events
    ?obs ?faults ?invariants ?invariant_extra ?on_sim_created ?on_cluster
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
    simulate scenario spec ~stream ~events
      ~obs:(Obs.Ctx.isolated obs) ?faults ~invariants:`Full
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
      simulate scenario spec
        ~stream:(resume_stream stream ~after:crashed_at)
        ~events:[] ~obs:(Obs.Ctx.isolated obs) ~invariants:`Full
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
