(** Structure-of-arrays 4-ary min-heap of timestamped events.

    The heap orders events by [(time, seq)] where [seq] is a strictly
    increasing tie-breaker assigned at insertion.  Two events scheduled
    for the same simulated time therefore fire in insertion order, which
    keeps simulation runs deterministic.

    Internally the heap keeps times, sequence numbers and payloads in
    three parallel arrays (times unboxed) and uses a 4-ary tree shape,
    which shortens the pop path relative to the original binary heap of
    records. *)

(** The representation is exposed so the scheduler's per-event loop can
    read the head entry ([times.(0)], [values.(0)]) as direct unboxed
    array loads — without flambda, any accessor returning [float] would
    box its result on every event.  Treat the fields as read-only
    outside this module and {!Sim}; all structural mutation must go
    through the functions below. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

val create : unit -> 'a t

(** [add h ~time v] inserts [v] with priority [time] and returns the
    sequence number assigned to the entry. *)
val add : 'a t -> time:float -> 'a -> int

val is_empty : 'a t -> bool

val size : 'a t -> int

(** [peek_time h] is the time of the earliest event, if any. *)
val peek_time : 'a t -> float option

(** [peek h] is the earliest entry without removing it. *)
val peek : 'a t -> (float * int * 'a) option

(** [pop h] removes and returns the earliest event as
    [(time, seq, value)].  Raises [Not_found] on an empty heap. *)
val pop : 'a t -> float * int * 'a

(** [pop_opt h] is [pop] returning [None] on an empty heap. *)
val pop_opt : 'a t -> (float * int * 'a) option

(** [drop_min h] removes the earliest event without returning it —
    callers that already read the head through the exposed arrays use
    this to complete an allocation-free pop.  Raises [Not_found] on an
    empty heap. *)
val drop_min : 'a t -> unit

(** [clear h] removes all pending events and drops the backing arrays,
    so a cleared heap retains no references to previously stored
    payloads.

    Sequence policy: [clear] does {e not} reset the internal sequence
    counter.  Entries added after a [clear] continue the old numbering,
    so sequence numbers stay unique over the whole lifetime of the heap
    and FIFO tie-breaking remains valid even if a caller compares
    entries obtained across a [clear]. *)
val clear : 'a t -> unit

(** [compact h ~keep] removes every entry whose payload fails [keep],
    preserving the [(time, seq)] keys of the survivors — the relative
    pop order of retained entries is unchanged.  Runs in O(n) filter
    plus O(n) heapify.  Used by {!Sim} to shed cancelled-event
    tombstones when they dominate the heap. *)
val compact : 'a t -> keep:('a -> bool) -> unit

(** [check_invariant h] verifies the internal heap ordering; used by the
    test suite. *)
val check_invariant : 'a t -> bool
