(** The shared-disk file-system server cluster.

    The cluster owns the servers, the shared disk, and the assignment
    of file sets to servers.  It routes every metadata request to the
    current owner of its file set, orchestrates file-set movement (the
    releasing server flushes dirty cache to the shared disk, the
    acquiring server initializes the set and starts cold — together the
    paper's five-to-ten-second move), buffers requests that arrive for
    a set in transit, and handles server failure by orphaning the
    failed server's sets until the placement policy adopts them
    elsewhere. *)

type move_config = {
  flush_fixed : float;
  (** seconds to quiesce and write back superblock state at the
      releasing server, on top of the dirty-data transfer *)
  init_fixed : float;
  (** seconds for the acquiring server to initialize the file set *)
  recovery_fixed : float;
  (** seconds of log replay when adopting a set from a failed server *)
  working_set_fraction : float;
  (** fraction of a set's metadata footprint streamed at init time *)
}

val default_move_config : move_config

(** One completed or in-flight movement, for reports and tests. *)
type move_record = {
  started_at : float;
  file_set : string;
  src : Server_id.t option;  (** [None] when adopting after a failure *)
  dst : Server_id.t;
  flush_seconds : float;
  init_seconds : float;
}

(** Lock-service outcomes, for reports and tests. *)
type lock_stats = {
  granted_immediately : int;
  waited : int;  (** acquisitions that queued behind a conflicting hold *)
  cancelled : int;  (** queued acquisitions released before grant *)
  leases_expired : int;  (** holds reclaimed by lease timeout *)
}

(** Where one file set currently lives, for invariant checkers: owned
    by a server, in transit, or orphaned awaiting adoption. *)
type ownership_state =
  | State_owned of Server_id.t
  | State_moving of { src : Server_id.t option; dst : Server_id.t;
                      buffered : int }
  | State_orphaned of { buffered : int }

(** The request-conservation ledger: at every instant
    [submitted = completed + inflight + buffered + lock_waiting] must
    hold — a request is done, at a server, queued behind a move or an
    orphan, or parked on a lock grant, and never anywhere else. *)
type conservation = {
  submitted : int;
  completed : int;
  inflight : int;  (** delivered to a server, not yet completed *)
  buffered : int;  (** queued behind in-transit or orphaned sets *)
  lock_waiting : int;  (** completions deferred on a lock grant *)
}

(** Which connection a partition severed: the cluster network or the
    path to the shared disk.  Either way the server is fenced at the
    storage and taken out of service; the distinction is recorded in
    the ledger and drives the zombie-write model. *)
type link = [ `Cluster | `Disk ]

(** The result of a ledger-vs-ownership audit ({!fsck}). *)
type fsck_report = {
  records : int;  (** valid ledger records scanned *)
  torn_found : int;  (** records whose checksum failed *)
  torn_repaired : int;  (** torn records rewritten (with [~repair]) *)
  divergent : string list;
      (** human-readable description of every file set where the
          ledger and in-memory ownership disagree *)
  clean : bool;  (** no torn records remain and nothing diverges *)
}

type t

(** [lease_duration] bounds every lock hold: a grant not released
    within it is reclaimed (Storage Tank's client leases), which also
    guarantees no request can block forever behind a lost client.

    [obs] (default {!Obs.Ctx.null}) receives the cluster's spans —
    every request with its stages, and every move from its begin
    (source and phase times) to its [commit], [orphan] or
    [interrupted] end — and,
    when it carries a metrics registry, the [request.latency]
    histogram, [requests.submitted] / [requests.completed] /
    [moves.started] counters, per-destination [server.N.moves_in]
    counters, plus the per-server gauges registered by
    {!Server.create}. *)
val create :
  Desim.Sim.t ->
  disk:Shared_disk.t ->
  catalog:File_set.Catalog.t ->
  ?move_config:move_config ->
  ?cache_config:Cache.config ->
  ?lease_duration:float ->
  ?delegate_lease:float ->
  series_interval:float ->
  servers:(Server_id.t * float) list ->
  ?topology:Topology.t ->
  ?obs:Obs.Ctx.t ->
  unit ->
  t

val sim : t -> Desim.Sim.t

(** [topology t] is the failure-domain topology the cluster was
    created with — {!Topology.flat} over the initial servers when none
    was given, so every pre-topology call site sees a single vacuous
    domain.  Raises [Invalid_argument] at {!create} time if a supplied
    topology names a server outside the cluster. *)
val topology : t -> Topology.t

(** [obs t] is the context the cluster was created with. *)
val obs : t -> Obs.Ctx.t

val catalog : t -> File_set.Catalog.t

(** [fs_id t name] is the dense id every hot-path table uses for
    [name]: its catalog position, equal to the file-set index of a
    {!Workload.Stream} built over the same name list.  Raises
    [Invalid_argument] for names outside the catalog. *)
val fs_id : t -> string -> int

(** [fs_name t fs] is the inverse of {!fs_id}. *)
val fs_name : t -> int -> string

(** [disk t] is the shared disk all servers sit on (the fault injector
    stalls it through this). *)
val disk : t -> Shared_disk.t

val server : t -> Server_id.t -> Server.t

val servers : t -> Server.t list

(** [alive_ids t] lists non-failed servers in id order. *)
val alive_ids : t -> Server_id.t list

(** [owner t name] is the current owner, [None] while the set is in
    transit or orphaned. *)
val owner : t -> string -> Server_id.t option

(** [owned_by t id] lists the file sets currently owned by [id]. *)
val owned_by : t -> Server_id.t -> string list

(** [assign_initial t pairs] installs the time-zero placement with warm
    caches and no movement cost.  Every file set must be assigned
    exactly once. *)
val assign_initial : t -> (string * Server_id.t) list -> unit

(** [restore_recovered t ~owned ~orphaned] installs a recovered
    placement — typically {!Ledger.recovered_assignment} of a replay of
    the surviving disk — into a fresh cluster after a whole-cluster
    crash.  [owned] sets roll forward to their committed owners with
    cold caches and are {e not} re-journaled (the ledger already folds
    to them); [orphaned] sets, plus every catalog set neither list
    mentions, are parked as orphans for the policy to re-place, each
    journaled as a [Commit Orphan] rollback so {!fsck} agrees with
    memory immediately.  Returns [(owned, orphaned)] counts.  Raises
    [Invalid_argument] if the cluster already has assignments or a name
    is unknown. *)
val restore_recovered :
  t -> owned:(string * int) list -> orphaned:string list -> int * int

(** [set_sink t k] installs the completion sink and the servers'
    station hooks (a start hook only when the cluster's context traces
    or keeps telemetry); a server added later with {!add_server} gets
    them too.  [k] fires once per completed request with the request's
    interned file-set id, operation, path hash and client, and its full
    latency (including move buffering, service at a server that crashed
    and lock waits).  At most one sink; a second call replaces the
    first. *)
val set_sink :
  t ->
  (fs:int ->
  op:Request.op ->
  path_hash:int ->
  client:int ->
  latency:float ->
  unit) ->
  unit

(** [clear_sink t] detaches the sink and the servers' hooks, so a
    cluster kept after its run no longer holds what [k] closes over.
    Call once the run has drained: a request completing afterwards
    raises [Failure]. *)
val clear_sink : t -> unit

(** [submit t ~fs ~op ~base_demand ~path_hash ~client] routes a request
    for the file set with interned id [fs] to the set's owner, or
    buffers it while the set is in transit or orphaned.  The request's
    whole state lives in a reused slot of the cluster until it
    completes, so a request allocates no record and no closure.  A
    server crash re-buffers the requests it held, in arrival order, and
    redelivers them with the time already spent added to their latency.
    [Lock_acquire] requests additionally pass through the lock service:
    when the requested lock conflicts with a current hold, completion is
    deferred until the grant (release, cancellation or lease expiry of
    the blockers), and the wait is included in the reported latency.
    Raises [Failure] if the file set was never assigned or no sink is
    installed ({!set_sink}). *)
val submit :
  t ->
  fs:int ->
  op:Request.op ->
  base_demand:float ->
  path_hash:int ->
  client:int ->
  unit

val lock_stats : t -> lock_stats

(** [move t ~file_set ~dst] starts a movement.  No-op when [dst]
    already owns the set or a move of the set is already in flight.
    Orphaned sets are adopted with recovery cost instead of flush
    cost. *)
val move : t -> file_set:string -> dst:Server_id.t -> unit

(** [fail_server t id] crashes a server: interrupted and queued
    requests are re-buffered ([requests.rebuffered]), its file sets
    become orphaned, and every in-flight move the server was an
    endpoint of dies with it ([moves.failed]) — a dead destination, or
    a dead source whose flush had not finished, orphans the moving set
    with its buffered requests intact; adoption later pays the
    recovery cost.  Returns the sorted names of every file set that
    now needs re-placement (owned sets plus interrupted moves).

    Contract: failing an already-failed server is an explicit no-op
    returning [[]], so fault schedules may double-fire safely.  Raises
    [Invalid_argument] only for a server id that never existed. *)
val fail_server : t -> Server_id.t -> string list

(** [recover_server t id] brings a failed server back (empty, cold).
    If the server was partitioned, the partition is healed first: the
    disk fence lifts, the stale delegate belief (if any) is dropped,
    and the ledger records the heal before the rejoin.

    Contract: recovering an alive server is an explicit no-op.  Raises
    [Invalid_argument] only for a server id that never existed. *)
val recover_server : t -> Server_id.t -> unit

(** [partition_server t id ~link] isolates a live server: it is fenced
    at the shared disk {e first}, then taken out of service exactly
    like a crash (sets orphaned, moves killed, requests re-buffered) —
    but unlike a crash the process is presumed alive on the far side,
    so any delegate-lease belief it held is {e kept} (see
    {!delegate_believers}); the fence is what keeps that stale belief
    harmless.  Returns the file sets needing re-placement, like
    {!fail_server}.  Partitioning a dead or already-partitioned server
    is a no-op returning [[]]. *)
val partition_server : t -> Server_id.t -> link:link -> string list

val is_partitioned : t -> Server_id.t -> bool

(** [partitioned_servers t] lists currently partitioned servers in id
    order. *)
val partitioned_servers : t -> (Server_id.t * link) list

(** [zombie_write t id] models the isolated server trying to write
    shared metadata from the wrong side of the partition: an
    identified write to a reserved probe block.  [`Rejected] when the
    fence bounced it (counted in [fence.write_rejected] and
    {!zombie_stats}); [`Landed] means fencing failed — the invariant
    checker flags it. *)
val zombie_write : t -> Server_id.t -> [ `Landed | `Rejected ]

(** [zombie_stats t] is [(attempts, rejected)] over all zombie
    writes. *)
val zombie_stats : t -> int * int

(** {2 The delegate lease}

    One epoch-numbered lease record on the shared disk (block
    {!Ledger.lease_block}), moved only by compare-and-swap of its raw
    bytes, so election is linearized by the disk itself. *)

(** [ensure_delegate t] makes the lowest-id alive server the delegate:
    the rightful holder renews its unexpired lease in place (same
    epoch); otherwise the candidate claims the lease under a bumped
    epoch ([fence.epoch_bump], a ledger [Epoch] record, and every
    {e connected} stale believer stands down — partitioned ones keep
    their stale belief and stay fenced).  Returns the current epoch;
    no-op returning the on-disk epoch when no server is alive. *)
val ensure_delegate : t -> int

(** [reelect_delegate t] forces a new election even though the current
    lease has not expired — the path taken when the delegate process
    is known dead or isolated.  Returns the new epoch. *)
val reelect_delegate : t -> int

(** [delegate_epoch t] reads the epoch from the on-disk lease (0 when
    no lease was ever written). *)
val delegate_epoch : t -> int

(** [delegate_believers t] lists each server believing it holds (or
    held) the delegate lease, with the epoch of that belief, in id
    order.  At most one belief is current; stale ones belong to
    partitioned servers and are exactly what fencing contains. *)
val delegate_believers : t -> (Server_id.t * int) list

(** {2 The ownership ledger} *)

(** [ledger t] is the cluster's write-ahead ownership ledger (attached
    to {!disk} at creation). *)
val ledger : t -> Ledger.t

(** [set_on_torn t f] forwards torn-append notifications (at most one
    hook; a second call replaces the first).  Independent of the hook,
    torn appends bump the [ledger.torn_writes] counter. *)
val set_on_torn : t -> (seq:int -> unit) -> unit

(** [fsck ?repair t] audits the ledger against in-memory ownership:
    replays the log, repairs torn records (when [repair], the default)
    and re-replays, then merge-joins the folded ledger state with
    {!ownership_states}.  Bumps [ledger.replays] / [ledger.repaired]
    and emits one [Ledger_replay] trace event. *)
val fsck : ?repair:bool -> t -> fsck_report

(** [add_server t id ~speed] commissions a new, empty server. *)
val add_server : t -> Server_id.t -> speed:float -> unit

(** [mem_server t id] reports whether the server id exists at all
    (alive or failed). *)
val mem_server : t -> Server_id.t -> bool

val moves : t -> move_record list

val moves_started : t -> int

(** [moves_failed t] counts moves interrupted by a crash of either
    endpoint (also the [moves.failed] counter). *)
val moves_failed : t -> int

(** [requests_rebuffered t] counts in-flight requests re-queued after
    their server crashed (also the [requests.rebuffered] counter). *)
val requests_rebuffered : t -> int

(** [set_on_move_start t f] installs a hook called whenever a move is
    armed (at most one; a second call replaces the first).  The fault
    injector uses it to target mid-move crashes.  The hook runs with
    the move already scheduled; callbacks that mutate the cluster must
    go through the simulator ([Desim.Sim.schedule]), never
    synchronously. *)
val set_on_move_start :
  t ->
  (file_set:string ->
  src:Server_id.t option ->
  dst:Server_id.t ->
  flush_seconds:float ->
  init_seconds:float ->
  unit) ->
  unit

(** [pending_requests t] counts requests buffered behind in-transit or
    orphaned file sets; zero in steady state. *)
val pending_requests : t -> int

(** [ownership_states t] lists every file set's current placement
    state, sorted by name — the single-ownership oracle. *)
val ownership_states : t -> (string * ownership_state) list

(** [conservation t] is the current request ledger (see
    {!conservation}). *)
val conservation : t -> conservation
