(** Network-attached shared block storage (the SAN-visible disks).

    Every server can read and write any block, which is what makes
    file-set movement cheap: the releasing server flushes dirty
    metadata, the acquiring server initializes from the shared image.
    The model is a flat block space with a real in-memory store (so the
    metadata substrate genuinely round-trips through it) plus a simple
    time model: per-operation overhead and streaming bandwidth. *)

type t

type config = {
  block_size : int;  (** bytes per block *)
  op_overhead : float;  (** seconds of fixed cost per I/O operation *)
  bandwidth : float;  (** bytes per second of streaming transfer *)
}

val default_config : config

val create : ?config:config -> unit -> t

(** [write t ~block data] stores [data] and returns the simulated
    service time of the I/O. *)
val write : t -> block:int -> string -> float

(** [read t ~block] returns [(data, time)]; absent blocks read as
    [None]. *)
val read : t -> block:int -> string option * float

(** [transfer_time t ~bytes] is the time to stream [bytes] (one
    operation's overhead plus bandwidth-limited transfer), scaled by
    the current stall factor. *)
val transfer_time : t -> bytes:int -> float

(** {2 Transient stalls}

    A stall models a congested or degraded interconnect: every I/O
    time is multiplied by the stall factor until the stall clears.
    Stalls may overlap; the disk then runs at the largest factor still
    active.  The fault injector arms and clears stalls on the virtual
    clock. *)

(** [set_stall t ~factor] starts a stall that slows transfers by
    [factor] ([>= 1.0]; raises [Invalid_argument] otherwise). *)
val set_stall : t -> factor:float -> unit

(** [clear_stall t ~factor] ends one active stall of [factor], leaving
    any other active stall in force. *)
val clear_stall : t -> factor:float -> unit

(** [stall_factor t] is the current multiplier: the largest active
    stall's factor, 1.0 when none is active. *)
val stall_factor : t -> float

(** {2 Fencing and atomic primitives}

    Storage Tank's lease layer fences a server at the storage: a
    fenced server's writes are rejected by the disk itself, so a
    partitioned server that still believes it owns metadata cannot
    corrupt the shared image no matter what it believes.  Identity is
    carried per operation ({!write_as}); the plain {!write} path is the
    trusted in-process path (flush during a coordinated move) and is
    not subject to fencing. *)

(** [fence t ~server] rejects all subsequent {!write_as} operations
    from [server] until {!unfence}. *)
val fence : t -> server:int -> unit

val unfence : t -> server:int -> unit

val is_fenced : t -> server:int -> bool

(** [write_as t ~server ~block data] is {!write} with the writer's
    identity attached: [`Ok time] when the write landed, [`Fenced]
    when the server is fenced (the write is rejected and counted, the
    store untouched). *)
val write_as :
  t -> server:int -> block:int -> string -> [ `Ok of float | `Fenced ]

(** [compare_and_swap t ~block ~expect data] installs [data] iff the
    block currently holds exactly [expect] ([None] = absent).  This is
    the disk-side primitive delegate-lease election is built on: the
    single-threaded simulator makes it trivially atomic, and gating
    every lease transition through it makes two concurrent delegates
    impossible by construction. *)
val compare_and_swap :
  t -> block:int -> expect:string option -> string -> bool

(** {2 Write-point instrumentation}

    Every mutation of the store — a {!write}, a landed {!write_as}, a
    winning {!compare_and_swap} — is one {e write point}, numbered by a
    monotone counter.  The crash-point explorer installs a hook that is
    consulted at each write point with the point's number, target block,
    whether it came through CAS, and the bytes about to land; the
    verdict decides the point's fate.  Rejected [write_as] and losing
    CAS attempts mutate nothing and are not write points. *)

type write_verdict =
  | Write_ok  (** the write lands whole; the run continues *)
  | Write_crash_before  (** power loss just before the sector: nothing
                            lands, {!Crashed} is raised *)
  | Write_crash_after  (** power loss just after: the write lands
                           whole, then {!Crashed} is raised *)
  | Write_torn of int
      (** partial sector write at power loss: only the first [n] bytes
          land (clamped to [\[0, length\]]; [0] leaves an empty block,
          distinct from an absent one), then {!Crashed} is raised *)

(** Raised by the three crash verdicts: whole-cluster power loss at
    write point [op] targeting [block].  All in-memory state above the
    disk is dead; recovery must proceed from the disk image alone. *)
exception Crashed of { op : int; block : int }

(** [set_write_hook t hook] arms the write-point hook (at most one; a
    second call replaces the first).  [op] is the 1-based write-point
    number, [cas] distinguishes lease CAS installs from plain writes. *)
val set_write_hook :
  t -> (op:int -> block:int -> cas:bool -> data:string -> write_verdict) -> unit

val clear_write_hook : t -> unit

