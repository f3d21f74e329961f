(** The partitioned unit interval and the servers' mapped regions.

    This is the geometric state that ANU randomization tunes.  The
    unit interval is divided into [p] equal partitions where
    [p = 2^(ceil(log2 n) + 1)] for [n] servers (at least [2n], a power
    of two, matching the paper's example of four servers in eight
    partitions).  Each server owns a {e mapped region}: a set of
    segments, ideally full partitions plus at most one partial
    partition.  Two invariants are maintained:

    - {b half occupancy}: the regions' total measure is exactly 1/2,
      so a free partition is available for a recovered or added server
      and re-hashing terminates quickly (each round hits a mapped
      point with probability 1/2);
    - {b disjointness}: regions never overlap, so point location is a
      function.

    Rescaling is performed shrink-first then grow, releasing partial
    chunks before whole partitions and growing into the grower's own
    partial partition, then whole free partitions — the order that
    minimizes both fragmentation and the measure of the interval that
    changes owner (which is what bounds file-set movement).

    Adding a server when [p] would fall below [2^(ceil(log2 n)+1)]
    {e re-partitions} the interval: [p] doubles and no segment moves,
    exactly as the paper prescribes (unlike linear hashing, further
    partitioning moves no load). *)

type t

(** [partition_count_for n] is [2^(ceil(log2 n) + 1)] for [n >= 1]. *)
val partition_count_for : int -> int

(** [create ~servers] lays out [n] equal regions of measure [1/(2n)],
    each starting at a fresh partition boundary.  Requires a non-empty
    de-duplicated server list. *)
val create : servers:Sharedfs.Server_id.t list -> t

val servers : t -> Sharedfs.Server_id.t list

(** [mem t id] tests membership without the list walk of [servers]. *)
val mem : t -> Sharedfs.Server_id.t -> bool

val partitions : t -> int

(** [width t] is [1 /. float (partitions t)]. *)
val width : t -> float

(** [locate t x] is the owner of point [x] in [\[0, 1)], or [None] for
    free space.  O(1): one multiply selects the partition bucket (exact
    because [partitions t] is a power of two), then a scan of the few
    segments overlapping that partition. *)
val locate : t -> float -> Sharedfs.Server_id.t option

(** [version t] is a counter bumped by every mutation ([scale],
    [remove_server], [add_server], and the internal shrink/grow paths).
    Callers caching locate results (the ANU addressing cache) compare
    versions to detect staleness; equal versions guarantee an identical
    locate function. *)
val version : t -> int

val region : t -> Sharedfs.Server_id.t -> Hashlib.Unit_interval.Set.t

val measure_of : t -> Sharedfs.Server_id.t -> float

(** [measures t] lists (server, measure) in id order. *)
val measures : t -> (Sharedfs.Server_id.t * float) list

(** [free_set t] is the unmapped half of the interval.  O(n log n):
    prefer {!free_in_partition} on hot paths. *)
val free_set : t -> Hashlib.Unit_interval.Set.t

(** [free_in_partition t j] is the free space inside partition [j],
    computed from that partition's segment bucket alone — equal to
    [Set.restrict (free_set t) (partition_seg j)] without the global
    union.  The test suite pins the equality. *)
val free_in_partition : t -> int -> Hashlib.Unit_interval.Set.t

(** [total_measure t] is the mapped total (1/2 up to tolerance). *)
val total_measure : t -> float

(** [scale t ~targets] rescales every server's region.  [targets] must
    cover exactly the current servers; they are normalized to sum to
    1/2 (all-zero targets are rejected).  Shrinking happens before
    growing so growers find maximal free space. *)
val scale : t -> targets:(Sharedfs.Server_id.t * float) list -> unit

(** [remove_server t id] frees the server's region.  The caller is
    responsible for re-scaling survivors to restore half occupancy
    (e.g. proportionally, as ANU does on failure). *)
val remove_server : t -> Sharedfs.Server_id.t -> unit

(** [add_server t id ~target] shrinks existing servers proportionally
    to make room, re-partitions if the partition budget requires it,
    and places the new server into free partitions with measure
    [target] (clamped to [\[0, 1/2\]]). *)
val add_server : t -> Sharedfs.Server_id.t -> target:float -> unit

(** [fragmentation_fallbacks t] counts grow operations that could not
    honour the one-partial-partition discipline and had to grab
    arbitrary free space.  Zero in healthy runs. *)
val fragmentation_fallbacks : t -> int

(** [partial_partitions t id] counts partitions the server occupies
    partially (neither empty nor full); the layout discipline keeps
    this at most 1 except after fragmentation fallbacks. *)
val partial_partitions : t -> Sharedfs.Server_id.t -> int

(** [check_invariants t] returns human-readable violations (empty when
    healthy): overlap, occupancy drift, out-of-range segments, servers
    with more than one partial partition. *)
val check_invariants : t -> string list

(** [index_consistent t] rebuilds the partition-bucket table from
    scratch and compares it structurally with the incrementally patched
    one — the oracle for the O(changed) index maintenance.  Always true
    unless bucket patching has a bug. *)
val index_consistent : t -> bool

(** [drain_changed t] returns (and clears) the sorted list of servers
    whose region changed since the last drain — including servers that
    have since been removed.  Lets per-round consumers (invariant
    accumulators, telemetry) pay O(changed) instead of O(n). *)
val drain_changed : t -> Sharedfs.Server_id.t list

val pp : Format.formatter -> t -> unit

(** {2 Replication}

    The region map is the {e only} state ANU replicates: the delegate
    serializes it after each reconfiguration and every server installs
    the copy, after which addressing is purely local.  The encoding is
    a single human-readable line; [of_string (to_string t)] is
    observationally equal to [t] (same partitions, same regions, hence
    the same [locate] function). *)

val to_string : t -> string

(** [of_string s] parses a serialized map; raises [Failure] on
    malformed input or if the decoded map violates the invariants. *)
val of_string : string -> t
