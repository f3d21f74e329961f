(** The simulation runner: wires a trace, a cluster and a policy
    together and collects everything the figures plot.

    One run builds a fresh simulator, feeds it every trace arrival,
    installs the policy's initial placement at time zero (prescient
    gets its oracle look-ahead first, so it starts balanced; adaptive
    policies start uniform), and fires a delegate round every
    reconfiguration interval: collect per-server latency windows, let
    the policy re-address, diff the assignment, and have the cluster
    execute the moves (with their flush/init costs and cold caches).
    Scripted membership events inject failures, recoveries, additions
    and speed changes at given times.

    Every run takes one driver, and two steps do all its control-plane
    work.  The {e rehoming step} ends every change of addressing — a
    round's apply stage, a crash, recovery, partition or heal, an
    addition, a decommission and its final drain, a restart from the
    ledger, and a round that decides nothing: it issues the moves the
    policy's addressing asks for, traces one [Rehash_round] naming the
    trigger, and runs one invariant check.  The {e round handler}
    settles every delegate round, whatever collected its reports: a
    fault-free run collects synchronously and hands the handler a
    complete round; a run with an armed fault injector collects
    asynchronously and the handler first checks whether the round was
    overruled (the delegate crashed, or the lease changed hands).  A
    round span ends with one outcome:
    - ["applied"] or ["degraded"] (a quorum reported): tuned and
      applied, swept as ["delegate-round"];
    - ["skipped"] (below quorum): swept as ["round-skipped"];
    - ["fenced"] (the lease epoch changed mid-round): swept as
      ["round-fenced"];
    - ["delegate-crash"] (the delegate died before deciding): swept as
      ["delegate-crash"].

    Only the first two open ["tune"] and ["apply"] stages. *)

type event_action =
  | Fail of int
  | Recover of int
  | Add of int * float  (** id, speed *)
  | Set_speed of int * float
  | Delegate_crash
      (** lose whatever state the elected delegate held; placement
          policies must keep working (ANU drops its divergent-tuning
          history, everything else is replicated) *)
  | Decommission of int
      (** planned removal: the server's sets are re-addressed and
          drain by the cheap flush path while it is still up; after a
          grace period anything left goes down the crash path *)

type event = { at : float; action : event_action }

type result = {
  label : string;
  policy_name : string;
  duration : float;
  server_series : (int * Desim.Timeseries.point list) list;
  (** per server: bucketed mean latency over time (seconds) *)
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
  sim_events : int;  (** engine events fired over the whole run *)
  sim_wall_seconds : float;
      (** wall-clock seconds the engine spent firing them, plus the
          wait at the run's end for a trace sink to finish encoding
          its events ({!Obs.Ctx.flush}): encoding that overlaps the
          engine on a helper domain is thus still counted once *)
  sim_peak_pending : int;
      (** high-water mark of the event heap — O(inflight), independent
          of request count: arrivals never enter the heap *)
  metrics : Obs.Metrics.snapshot option;
      (** per-run metrics snapshot when the run's {!Obs.Ctx.t} carried
          a registry *)
  telemetry : Obs.Telemetry.snapshot option;
      (** per-run telemetry snapshot (per-server series, request-rate
          series, heavy-hitter file sets) when the run's {!Obs.Ctx.t}
          carried a telemetry registry *)
  violations : (float * string) list;
      (** every invariant breach the run detected, in detection order;
          always empty unless invariant checking was on (see
          {!run}) *)
}

(** The invariant checker a run carries.  [`Off] checks nothing.
    [`Full] runs {!Fault.Invariants.check} after every reconfiguration
    round and every membership change.  [`Light] swaps the per-round
    full check for the delta-maintained {!Fault.Invariants.Acc}, so
    rounds cost O(changed servers) instead of a full cluster walk —
    what keeps a checked 10,000-server run affordable (the [scale]
    figure's configuration); membership changes still run the full
    check and resync the accumulator. *)
type invariants = [ `Off | `Full | `Light ]

type throughput = {
  events : int;  (** engine events fired, summed over the runs *)
  engine_wall_seconds : float;
  events_per_second : float;  (** 0 when no engine time was recorded *)
}

(** [throughput results] folds engine events and engine wall time over
    [results] into one events/s figure — the single source of truth
    used by the perf JSON and the bench CLI output, so the two can
    never diverge. *)
val throughput : result list -> throughput

(** [run_stream scenario spec ~stream ?events ()] executes one full
    simulation off a pull-based {!Workload.Stream.t} and returns the
    measurements.  The simulation runs past the stream end until every
    queued request drains.

    This is the constant-memory driver: arrivals are rows of the
    stream's column cursor ({!Workload.Stream.start_batch}) fed to the
    engine as an external source ({!Desim.Sim.set_source}), so they
    never occupy the event heap and heap occupancy stays O(inflight) no
    matter how many requests flow; each request lives in a reused
    cluster slot until it completes ({!Sharedfs.Cluster.submit});
    latency summaries are streaming (exact mean/max, log-binned p95 —
    see {!Desim.Stat.Quantile}); and the prescient oracle is a second,
    lazily-started cursor over the same stream, paid for only when a
    policy forces [future_demand].

    [obs] (default {!Obs.Ctx.null}) observes the run: the cluster
    writes request and move spans, the runner adds one ["round"] span
    per reconfiguration interval (numbered, with its ["collect"],
    ["tune"] and ["apply"] stages; the tune stage carries the latency
    inputs, the average and the retuned regions, and a degraded or
    skipped round's end names the missing servers and the survivor
    count) plus [Membership] and [Rehash_round] events, and an
    attached metrics
    registry is {e isolated} at run start (the run gets a fresh
    registry via [Obs.Ctx.isolated]) so [result.metrics] is per-run
    and concurrent runs never share instruments.

    [faults] arms a {!Fault.Plan} against the run: timed crashes and
    recoveries, partitions (with fencing, zombie-write probes and
    heals), mid-move crashes, torn ledger appends, disk stalls, and an
    unreliable report channel — delegate rounds then collect
    asynchronously with the plan's timeout/retry policy, average over
    survivors when a quorum reports, and skip the round otherwise.
    Chaos runs also drive the delegate lease: the lease is established
    at time zero and renewed at each round start, every round is
    epoch-gated (a decision collected under an epoch that changed
    hands mid-flight is fenced — discarded, counted under
    [rounds.fenced]), and a delegate crash or partition forces an
    epoch-bumping re-election.  Retry-backoff jitter draws come from a
    per-round generator derived from the plan seed, so equal plans
    replay byte-for-byte.  The fault-free path is byte-identical to a
    run without the argument (the lease is never touched).

    [invariants] picks the checker (see {!invariants}); the default is
    [`Full] exactly when [faults] is given, [`Off] otherwise.  Breaches
    accumulate in [result.violations]; each is also emitted as an
    [Obs.Event.Invariant_violation] and counted under
    [invariants.violations].  [invariant_extra] is appended to each
    full check — the test-suite hook for planting a deliberately
    broken invariant.

    [on_sim_created] runs right after the simulator is built, letting
    callers attach additional model components (e.g. a {!Sharedfs.San}
    data path) to the same virtual clock.  [on_cluster] runs right
    after the cluster is built — the hook that lets a caller keep the
    handle for post-run audits ({!Sharedfs.Cluster.fsck}).
    [on_request_complete] fires once for every completed metadata
    request with the columns of the cluster's completion sink: the
    request's file-set id (its index in
    {!Workload.Stream.file_sets}), operation, path hash, client and
    client-perceived latency.

    Every run takes this one path, whatever it is given: faults,
    scripted events, invariant checks, observers and
    [on_request_complete] change what happens to requests, not how
    they are represented.  When the run ends the runner detaches the
    arrival source and the sink, so a cluster kept through [on_cluster]
    does not keep the run's cursor or latency summaries alive. *)
val run_stream :
  Scenario.t ->
  Scenario.policy_spec ->
  stream:Workload.Stream.t ->
  ?events:event list ->
  ?obs:Obs.Ctx.t ->
  ?faults:Fault.Plan.t ->
  ?invariants:invariants ->
  ?invariant_extra:(unit -> string list) ->
  ?on_sim_created:(Desim.Sim.t -> unit) ->
  ?on_cluster:(Sharedfs.Cluster.t -> unit) ->
  ?on_request_complete:
    (fs:int ->
    op:Sharedfs.Request.op ->
    path_hash:int ->
    client:int ->
    latency:float ->
    unit) ->
  unit ->
  result

(** [run scenario spec ~trace ?events ()] is {!run_stream} over
    [Workload.Stream.of_trace trace] — the materialized adapter every
    pre-streaming experiment and test goes through.  Results are
    identical to driving the stream directly (the oracle and arrival
    orders match record for record). *)
val run :
  Scenario.t ->
  Scenario.policy_spec ->
  trace:Workload.Trace.t ->
  ?events:event list ->
  ?obs:Obs.Ctx.t ->
  ?faults:Fault.Plan.t ->
  ?invariants:invariants ->
  ?invariant_extra:(unit -> string list) ->
  ?on_sim_created:(Desim.Sim.t -> unit) ->
  ?on_cluster:(Sharedfs.Cluster.t -> unit) ->
  ?on_request_complete:
    (fs:int ->
    op:Sharedfs.Request.op ->
    path_hash:int ->
    client:int ->
    latency:float ->
    unit) ->
  unit ->
  result

(** {2 Whole-cluster kill-and-restart}

    The crash-point explorer's execution primitive: run the scenario
    until the disk's write hook (or a scheduled kill) pulls the plug on
    the {e entire} cluster, then recover solely from the shared-disk
    image and resume the surviving tail of the workload to
    completion. *)

(** Raised inside the simulation by the [kill_at] timer: instant
    whole-cluster power loss not tied to any disk write. *)
exception Killed

type recovery = {
  crashed_at : float;  (** virtual time the plug was pulled *)
  crash_op : int option;  (** write point that crashed, if disk-induced *)
  crash_block : int option;  (** its target block *)
  replay_records : int;  (** valid ledger records found at restart *)
  replay_torn : int;  (** torn records found at restart *)
  recovered_owned : int;  (** placements rolled forward *)
  recovered_orphaned : int;  (** sets re-placed as orphans *)
  recovery_epoch : int;  (** lease epoch after the resumed run *)
  fsck : Sharedfs.Cluster.fsck_report;
      (** read-only audit of the resumed cluster against the final
          ledger *)
  resumed : result;  (** the resumed run, invariant-checked throughout *)
}

type kill_outcome =
  | Ran of result  (** no crash fired; the run completed normally *)
  | Recovered of recovery

(** [run_kill_restart scenario spec ~stream ()] is the two-phase
    driver.  Phase 1 runs like {!run_stream} (with [`Full] invariant
    checks) on a caller-visible disk; [arm] runs before the
    first write — the explorer's slot for
    {!Sharedfs.Shared_disk.set_write_hook} — and [kill_at] schedules a
    hook-free power loss at a virtual time.  If the phase completes,
    the result is [Ran].  On {!Sharedfs.Shared_disk.Crashed} or
    {!Killed}, every in-memory structure is discarded, the hook is
    cleared, and phase 2 recovers from the disk alone:
    {!Sharedfs.Ledger.replay}, the [decision] function (default
    {!Sharedfs.Ledger.recovered_assignment}; tests substitute a broken
    one to prove the harness catches it), a fresh cluster restored via
    {!Sharedfs.Cluster.restore_recovered} with a forced re-election,
    and the stream's surviving tail run to completion — followed by a
    read-only {!Sharedfs.Cluster.fsck}.  The crash consumes the fault
    plan: the resumed phase runs without it. *)
val run_kill_restart :
  Scenario.t ->
  Scenario.policy_spec ->
  stream:Workload.Stream.t ->
  ?events:event list ->
  ?obs:Obs.Ctx.t ->
  ?faults:Fault.Plan.t ->
  ?invariant_extra:(unit -> string list) ->
  ?kill_at:float ->
  ?arm:(Sharedfs.Shared_disk.t -> unit) ->
  ?decision:(Sharedfs.Ledger.replay -> (string * int) list * string list) ->
  unit ->
  kill_outcome

(** [converged_imbalance result ~from_] is max/mean of per-server mean
    latency computed over buckets starting at time [from_] and
    restricted to servers that served requests there — the "how
    balanced did it get after convergence" summary. *)
val converged_imbalance : result -> from_:float -> float

(** [mean_after result ~from_] is the request-weighted mean latency
    over buckets from [from_] on. *)
val mean_after : result -> from_:float -> float
