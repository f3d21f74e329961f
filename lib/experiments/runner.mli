(** The simulation runner: wires a trace, a cluster and a policy
    together and collects everything the figures plot.

    One run builds a fresh simulator, schedules every trace arrival,
    installs the policy's initial placement at time zero (prescient
    gets its oracle look-ahead first, so it starts balanced; adaptive
    policies start uniform), and fires a delegate round every
    reconfiguration interval: collect per-server latency windows, let
    the policy re-address, diff the assignment, and have the cluster
    execute the moves (with their flush/init costs and cold caches).
    Scripted membership events inject failures, recoveries, additions
    and speed changes at given times. *)

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
      (** wall-clock seconds the engine spent firing them *)
  sim_peak_pending : int;
      (** high-water mark of the event heap — O(streams + inflight)
          under the streaming driver, independent of request count *)
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

    This is the constant-memory driver: arrivals enter the event heap
    one at a time through a self-re-arming cursor, so heap occupancy
    stays O(streams + inflight) no matter how many requests flow;
    latency summaries are streaming (exact mean/max, log-binned p95 —
    see {!Desim.Stat.Quantile}); and the prescient oracle is a second,
    lazily-started cursor over the same stream, paid for only when a
    policy forces [future_demand].

    [obs] (default {!Obs.Ctx.null}) observes the run: the cluster
    emits request and move events, the runner adds one
    [Delegate_round] event per reconfiguration interval (latency
    inputs, elected delegate, region-scale decisions) plus
    [Membership] and [Rehash_round] events, and an attached metrics
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

    [check_invariants] (default: on exactly when [faults] is given)
    runs {!Fault.Invariants.check} after every reconfiguration round
    and membership event and accumulates breaches in
    [result.violations]; each breach is also emitted as an
    [Obs.Event.Invariant_violation] and counted under
    [invariants.violations].  [invariant_extra] is appended to each
    check — the test-suite hook for planting a deliberately broken
    invariant.

    [light_invariants] (default [false]) swaps the per-round full
    check for the delta-maintained {!Fault.Invariants.Acc} — rounds
    cost O(changed servers) instead of a full cluster walk, which is
    what keeps a checked 10,000-server run affordable (the [scale]
    figure's configuration).  Membership events still run the full
    oracle check (and resync the accumulator), and [invariant_extra]
    still rides those full checks.  Meaningless unless checks are on.

    [on_sim_created] runs right after the simulator is built, letting
    callers attach additional model components (e.g. a {!Sharedfs.San}
    data path) to the same virtual clock.  [on_cluster] runs right
    after the cluster is built — the hook that lets a caller keep the
    handle for post-run audits ({!Sharedfs.Cluster.fsck}).
    [on_request_complete] fires for every completed metadata request
    with its originating trace record (synthesized from the stream
    item) and client-perceived latency.

    When nothing wants per-request hooks — no faults, no scripted
    events, no tracing/metrics/telemetry, no [on_request_complete], no
    invariant sweeps — and the stream provides a column cursor
    ({!Workload.Stream.start_batch}), arrivals take an allocation-free
    fast path: identical events at identical times, completions
    reported through a sink instead of per-request closures. *)
val run_stream :
  Scenario.t ->
  Scenario.policy_spec ->
  stream:Workload.Stream.t ->
  ?events:event list ->
  ?obs:Obs.Ctx.t ->
  ?faults:Fault.Plan.t ->
  ?check_invariants:bool ->
  ?invariant_extra:(unit -> string list) ->
  ?light_invariants:bool ->
  ?on_sim_created:(Desim.Sim.t -> unit) ->
  ?on_cluster:(Sharedfs.Cluster.t -> unit) ->
  ?on_request_complete:(Workload.Trace.record -> latency:float -> unit) ->
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
  ?check_invariants:bool ->
  ?invariant_extra:(unit -> string list) ->
  ?on_sim_created:(Desim.Sim.t -> unit) ->
  ?on_cluster:(Sharedfs.Cluster.t -> unit) ->
  ?on_request_complete:(Workload.Trace.record -> latency:float -> unit) ->
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
    driver.  Phase 1 runs like {!run_stream} (serial engine, invariant
    checks forced on) on a caller-visible disk; [arm] runs before the
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
