(** One helper domain shared by background pollers.

    Work that is independent of the engine — generating arrivals ahead
    of a stream's consumer ({!Workload.Stream.prefetch}), encoding a
    JSONL trace ({!Obs.Sink.jsonl_channel}) — registers a {e poller}.
    The helper calls every registered poller in turn, over and over,
    allocating nothing per pass, and relaxes the core for one step when
    none did any work.  The first {!attach} spawns the helper domain,
    which then lives for the rest of the process: once its last poller
    has finished it parks on a condition variable, and the next
    {!attach} wakes it.  A helper runs only on the main domain
    ([Par.Pool] workers never start one) of a host offering more than
    one core; no setting turns it on or off. *)

(** What a poller reports for one call. *)
type status =
  | Idle  (** nothing to do this time *)
  | Worked  (** did some work; call again without pausing *)
  | Finished  (** never call again *)

(** A registered poller. *)
type t

(** [available ()] is whether {!attach} can start a helper from this
    domain. *)
val available : unit -> bool

(** [attach poll] registers [poll], waking the parked helper domain or
    spawning it the first time.  [poll] then runs on the helper, never
    concurrently with itself, until it returns [Finished].  It must not
    raise: it keeps its errors for its owner, and the helper records
    backtraces.  A [poll] that raises anyway is dropped as if it had
    returned [Finished].  [None] when {!available} is false or no
    domain could be spawned; [poll] is then never called. *)
val attach : (unit -> status) -> t option

(** [attached p] is true until the helper has dropped [p] after it
    returned [Finished] (or raised).  From then on [p] is never called again and,
    when [p] was the last poller, the helper has stopped polling
    ({!running} is false) and parks: an owner that waited for it may
    use whatever [p] touched. *)
val attached : t -> bool

(** [running ()] is whether the helper domain is running pollers, that
    is, whether any poller is attached. *)
val running : unit -> bool

(** [backoff n] is the [n]th step (from 0) of a wait for a poller's
    work: [Domain.cpu_relax], except that every 4,096th step (about
    0.2 ms) sleeps for 20 µs, since a waiter that waits that long most
    likely shares its core with the helper. *)
val backoff : int -> unit
