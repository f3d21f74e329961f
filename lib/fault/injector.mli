(** Arms a {!Plan} against a live simulation.

    The injector owns the mechanics of fault delivery — scheduling
    timed crashes and recoveries, stalling the shared disk, targeting
    mid-move crashes via the cluster's move-start hook, and deciding
    the fate of every latency-report delivery — while the {e policy}
    consequences (re-placement, re-election) stay with the runner,
    which supplies guarded {!actions}.  Every injected fault is
    counted under [fault.<kind>] and traced once, so a chaos run's
    trace doubles as its complete fault log: a fault with a window (a
    crash, a partition or a disk stall, of one server or of a whole
    failure domain) as one ["fault"] span from its first edge to its
    second, named by [Obs.Event.window_edge], and a point fault (a
    delegate crash, a lost or delayed report, a torn ledger write) as
    one [Obs.Event.Fault].  A domain fault opens one span, not one per
    member.  A crash or partition whose window is already open, and a
    recovery or heal that finds none open, is neither counted nor
    traced: the counters and the spans agree edge for edge.  Every disk
    stall opens its own span, as stalls may overlap. *)

type t

(** How the injector acts on the simulation.  The runner supplies
    closures that already handle the policy side (orphan re-placement,
    delegate re-election) and are safe to double-fire: crashing a dead
    server or recovering an alive one must be a no-op.

    Each action takes the members of one fault: a single server, with
    [~domain:None], or every server of the named failure domain.  It
    delivers the fault {e atomically}: the runner takes every member
    down (or up) first and only then re-places orphans, re-elects and
    checks invariants {e once} — never re-placing a file set onto a
    member that the same fault is about to kill.  Members already in
    the target state are skipped individually, so a domain fault
    overlapping per-server faults stays a no-op per member. *)
type actions = {
  crash : domain:string option -> Sharedfs.Server_id.t list -> unit;
  recover : domain:string option -> Sharedfs.Server_id.t list -> unit;
  crash_delegate : unit -> unit;
  partition :
    domain:string option ->
    Sharedfs.Server_id.t list ->
    link:Sharedfs.Cluster.link ->
    unit;
  heal : domain:string option -> Sharedfs.Server_id.t list -> unit;
}

(** [arm ~sim ~cluster ~obs ~duration ~actions plan] schedules every
    time-driven fault of [plan] within [\[0, duration)] (crashes,
    recoveries, disk stalls, partitions with their heals), installs
    the mid-move crash hook when the plan asks for move crashes, and
    arms any [Torn_write] specs on the cluster's ledger (the append
    index counts every append through the cluster's handle, initial
    assignment included).  While a partition is open the injector
    schedules periodic zombie writes from the isolated server —
    [Sharedfs.Cluster.zombie_write] — stopping on heal.  Call before
    running the simulation. *)
val arm :
  sim:Desim.Sim.t ->
  cluster:Sharedfs.Cluster.t ->
  obs:Obs.Ctx.t ->
  duration:float ->
  actions:actions ->
  Plan.t ->
  t

(** [fate t ~round] is the delivery oracle for reconfiguration round
    [round], shaped for [Delegate.collect_async].  The verdict for
    each [(round, server, attempt)] triple is a pure function of the
    plan seed — independent of evaluation order — so a chaos run is
    replayable draw for draw.  Losses and delays are traced and
    counted ([reports.lost]) as they are decided. *)
val fate :
  t ->
  round:int ->
  server:Sharedfs.Server_id.t ->
  attempt:int ->
  [ `Deliver of float | `Lost ]

(** [note_delegate_crash t] records a delegate crash the runner just
    performed (the mid-round [Delegate_crash_in_round] case, which
    only the runner can place). *)
val note_delegate_crash : t -> unit

(** [faults_injected t] tallies every fault delivered so far, by
    {!Obs.Event.fault_name} or {!Obs.Event.window_edge}, sorted by
    name; a window edge counts only when it opens or closes a
    window. *)
val faults_injected : t -> (string * int) list
