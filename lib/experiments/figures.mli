(** One constructor per figure of the paper's evaluation (Section 7).

    Figures 1–5 of the paper are architecture diagrams; the evaluation
    figures are 6–11 and each has a function here that runs the
    simulations behind it and returns the plotted series.  [quick]
    scales the workloads down (~10x fewer requests) for tests; the
    bench harness runs full size.  [obs] observes every simulation the
    figure runs (each run derives an isolated per-run metrics
    registry, with the snapshot on its {!Runner.result}; trace sinks
    are shared, with whole-event atomicity).  [jobs] (default 1) fans
    the figure's independent simulations out over that many domains;
    every simulation remains single-domain deterministic and results
    keep their spec order, so the figure is bit-identical for every
    [jobs] value — only wall-clock time changes. *)

type figure = {
  id : string;
  title : string;
  description : string;
  results : Runner.result list;
}

(** Figure 6: per-server latency over one hour of DFSTrace-like
    workload under simple randomization, round-robin, dynamic
    prescient and ANU randomization; five servers of speeds
    1, 3, 5, 7, 9. *)
val fig6 : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Figure 7: close-up of prescient vs ANU on the Figure 6 workload. *)
val fig7 : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Figure 8: the four policies on the synthetic workload (500 file
    sets, 100k requests, cubic weight skew). *)
val fig8 : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Figure 9: close-up of prescient vs ANU on the synthetic
    workload. *)
val fig9 : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Figure 10: the over-tuning problem — ANU with no heuristics
    (cyclic thrash on the weakest server) versus all three
    heuristics. *)
val fig10 : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Figure 11: decomposition — thresholding only, top-off only,
    divergent only. *)
val fig11 : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Ablation: reconfiguration interval sweep (the paper settled on two
    minutes as the over-tuning/responsiveness balance). *)
val ablation_interval : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Ablation: weighted-mean vs median averaging (the paper reports
    robustness to the choice). *)
val ablation_average : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Ablation: threshold parameter sweep. *)
val ablation_threshold : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Extension experiment: temporal heterogeneity — the hotspot group
    of file sets relocates every phase; adaptive policies must keep
    re-placing (an advantage the paper claims but does not isolate). *)
val temporal_shift : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Extension experiment (the paper's future work, Section 5):
    centralized delegate vs fully decentralized pair-wise gossip
    rescaling. *)
val decentralized : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Extension experiment: failure and recovery under ANU — a fast
    server fails mid-run and recovers later; load locality is
    preserved (moves stay near-minimal). *)
val failure_recovery : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Extension: the same membership churn story under the default
    seeded fault plan, with invariant checking on (see
    {!Runner.result.violations}). *)
val failure_recovery_chaos :
  ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Extension: the partition-centric chaos story — the elected
    delegate is partitioned from the cluster mid-move (fenced at the
    disk, zombie writes rejected, epoch-bumping re-election), a second
    server loses its disk path, and one ledger append tears; lease,
    fencing and ledger invariants are checked after every round.
    Byte-reproducible from [shdisk-sim chaos --plan partition]'s plan
    (seed 42). *)
val partition_chaos :
  ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Extension: collateral damage under correlated whole-domain
    failure.  Spread-constrained ANU over 2-, 3- and 5-rack layouts of
    the paper's five servers — plus an unconstrained baseline on the
    two-rack layout — under {!Fault.Plan.domain_mix} (seed 42, so the
    figure is byte-reproducible).  The constrained runs hold the
    domain-spread and collateral-bound invariants at every rack count;
    the baseline violates them when the fast rack dies whole. *)
val domain_failure_collateral :
  ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** Scale family: ANU and round-robin over 100, 1,000 and 10,000
    servers (five speeds cycled, ten racks, seed 42) on the figure-6
    workload at a fixed request count, so only the per-round
    reconfiguration work grows with the cluster.  Every round is
    invariant-checked through the delta-maintained
    {!Fault.Invariants.Acc} (the runner's [`Light] checker);
    [quick] shrinks the request count for the CI smoke.  Deterministic:
    equal invocations produce byte-identical output. *)
val scale : ?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure

(** [dfs_stream ~requests] is the figure-6 workload as a pull stream
    at an arbitrary request count: the count scales while the mean
    demand scales inversely, holding offered load at the figure's
    calibrated level.  The backbone of the constant-memory scale runs
    ([shdisk-sim run fig6-stream --requests 10000000]). *)
val dfs_stream : requests:int -> Workload.Stream.t

(** One ANU run of [dfs_stream] through {!Runner.run_stream} — the
    constant-memory scale demonstration.  [requests] defaults to the
    figure-6 count.  Not part of {!all_ids} (its signature differs);
    the CLI dispatches to it by the id ["fig6-stream"]. *)
val fig6_stream : ?requests:int -> ?obs:Obs.Ctx.t -> unit -> figure

val all_ids : string list

(** [by_id id] looks an experiment up by identifier ("fig6" ...). *)
val by_id : string -> (?quick:bool -> ?jobs:int -> ?obs:Obs.Ctx.t -> unit -> figure) option
