(** Adaptive, non-uniform (ANU) randomization — the paper's load
    placement algorithm.

    File-set names are hashed into the unit interval with successive
    members of a {!Hashlib.Hash_family}; the first round whose image
    lands inside some server's mapped region assigns the set to that
    server.  Because mapped regions cover exactly half the interval,
    assignment takes two probes on average and the probability of
    exhausting [hash_rounds] rounds is [2^-rounds], in which case a
    direct hash to an alive server is used.  Addressing is therefore
    deterministic, requires no I/O and no per-file-set shared state —
    only the region map (state proportional to the number of servers)
    is replicated.

    Every reconfiguration interval the delegate feeds latency reports
    to {!rebalance}: servers above the system average have their
    regions scaled down proportionally to [average / latency], servers
    below are scaled up (capped), all filtered through the
    {!Heuristics} and renormalized to half occupancy.  Failures scale
    survivors up proportionally; recoveries/additions shrink everyone
    to make room — both move the minimum measure, which is what
    preserves server caches across reconfigurations. *)

type config = {
  name : string;
  hash_rounds : int;  (** re-hash attempts before direct fallback *)
  heuristics : Heuristics.t;
  averaging : Average.method_;
  growth_cap : float;
  (** largest per-interval multiplicative region growth *)
  shrink_floor : float;
  (** smallest per-interval multiplicative region factor *)
  min_region : float;
  (** measure granted when growing a region away from zero, as a
      fraction of the partition width *)
  domain_spread : float option;
  (** when the instance is created with a non-flat
      {!Sharedfs.Topology}, cap every failure domain's fraction of the
      mapped half at its alive-server share plus this slack (default
      [Some 0.1]); a whole-domain failure then orphans a bounded
      fraction of the file sets.  [None] disables the constraint —
      tuning may then concentrate load arbitrarily inside one domain
      (the configuration the domain-failure-collateral figure uses as
      its baseline).  Ignored under a flat topology, so existing
      single-domain runs are byte-identical. *)
}

val default_config : config

type t

(** [create ?config ?topology ~family ~servers ()] builds an instance
    over [servers].  [topology] (default
    [Sharedfs.Topology.flat ~servers]) names the failure domains the
    [domain_spread] constraint is enforced against at every
    reconfiguration — tuning, failure and addition alike; servers the
    topology does not mention are unconstrained. *)
val create :
  ?config:config ->
  ?topology:Sharedfs.Topology.t ->
  family:Hashlib.Hash_family.t ->
  servers:Sharedfs.Server_id.t list ->
  unit ->
  t

val config : t -> config

(** The failure-domain topology the instance enforces [domain_spread]
    against (flat unless one was supplied to {!create}). *)
val topology : t -> Sharedfs.Topology.t

(** [locate t name] is the current owner of [name].

    Lookups are memoized per name: the result (including the probe
    count) is cached together with the region map's
    {!Region_map.version} and replayed while the map is unchanged.
    Any reconfiguration bumps the version, so the cache can never
    serve a stale owner; cached and uncached lookups agree on every
    input. *)
val locate : t -> string -> Sharedfs.Server_id.t

(** [locate_with_rounds t name] also reports how many hash probes the
    assignment took ([hash_rounds + 1] signals the direct fallback).
    The probe count is cached alongside the owner, so this remains a
    pure function of the (map, name) pair. *)
val locate_with_rounds : t -> string -> Sharedfs.Server_id.t * int

val rebalance : t -> Policy.feedback -> unit

val server_failed : t -> Sharedfs.Server_id.t -> unit

(** [server_added t id] handles recovery and commissioning alike (the
    paper treats them identically): the newcomer receives the uniform
    share [1/(2n)] carved from a free partition. *)
val server_added : t -> Sharedfs.Server_id.t -> unit

(** [region_map t] exposes the live geometry, for tests, reports and
    the examples. *)
val region_map : t -> Region_map.t

(** [reconfigurations t] counts {!rebalance} calls that changed at
    least one region. *)
val reconfigurations : t -> int

(** [forget_history t] models a delegate crash: the latency history
    behind divergent tuning is lost; the next round runs the same
    stateless protocol and simply skips the divergence test once. *)
val forget_history : t -> unit

(** [apply_domain_spread t targets] is the water-filling clamp that
    bounds each failure domain's share of the mapped half, run on
    reusable flat arrays keyed by dense target index.  The test suite
    pins it byte-for-byte against the original list/Hashtbl
    implementation (same float operation order throughout). *)
val apply_domain_spread :
  t ->
  (Sharedfs.Server_id.t * float) list ->
  (Sharedfs.Server_id.t * float) list

(** [policy t] packs the instance behind the generic interface. *)
val policy : t -> Policy.t
