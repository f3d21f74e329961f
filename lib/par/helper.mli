(** One helper domain shared by background pollers.

    Work that is independent of the engine — generating arrivals ahead
    of a stream's consumer ({!Workload.Stream.prefetch}), encoding a
    JSONL trace ({!Obs.Sink.jsonl_channel}) — registers a {e poller}.
    The helper calls every registered poller in turn, over and over,
    allocating nothing per pass, and relaxes the core for one step when
    none did any work.  The {!attach} that finds no helper running
    spawns one; it stops as soon as its last poller has finished.  A
    helper runs only on the main domain ([Par.Pool] workers never start
    one) of a host offering more than one core; no setting turns it on
    or off. *)

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

(** [attach poll] registers [poll], spawning the helper domain if none
    is running.  [poll] then runs on the helper, never concurrently
    with itself, until it returns [Finished].  It must not raise: it
    keeps its errors for its owner, and the helper records backtraces.
    [None] when {!available} is false or no domain could be spawned;
    [poll] is then never called. *)
val attach : (unit -> status) -> t option

(** [attached p] is true until the helper has dropped [p] after it
    returned [Finished].  From then on [p] is never called again and,
    when [p] was the last poller, the helper has stopped polling
    ({!running} is false): an owner that waited for it may use whatever
    [p] touched. *)
val attached : t -> bool

(** [await_exit ()] returns once a stopped helper domain has exited, and
    at once while a helper runs or none was started.  Otherwise the
    exit (about 0.3 ms, with one stop-the-world minor collection) runs
    during whatever the owner does next.  {!attach} joins a stopped
    domain before spawning another, so at most one exists. *)
val await_exit : unit -> unit

(** [running ()] is whether a helper domain is running pollers. *)
val running : unit -> bool

(** [backoff n] is the [n]th step (from 0) of a wait for a poller's
    work: [Domain.cpu_relax], except that every 4,096th step (about
    0.2 ms) sleeps for 20 µs, since a waiter that waits that long most
    likely shares its core with the helper. *)
val backoff : int -> unit
