(** Discrete-event simulation engine.

    A {!t} holds a virtual clock and a pending-event queue.  Events are
    closures scheduled at absolute or relative virtual times; running the
    simulation pops events in time order (FIFO among equal times) and
    executes them, advancing the clock.  This is the OCaml substitute for
    the YACSIM toolkit used by the paper's original evaluation. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type handle

(** A handle that no event ever has: {!cancel} on it is a no-op and
    {!cancelled} reports [true].  Useful as an initial value for
    mutable handle state. *)
val null_handle : handle

exception Past_event of { now : float; requested : float }

(** [create ()] makes a simulator with the clock at [0.0]. *)
val create : unit -> t

(** [now t] is the current virtual time. *)
val now : t -> float

(** [pending t] is the number of events not yet fired or cancelled. *)
val pending : t -> int

(** [peak_pending t] is the high-water mark of {!pending} over the
    simulator's lifetime — the memory-relevant heap occupancy.  A
    streaming driver keeps this O(streams + inflight) regardless of how
    many requests flow through. *)
val peak_pending : t -> int

(** [schedule_at t ~time f] runs [f ()] when the clock reaches [time].
    Raises {!Past_event} if [time] is before {!now}. *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [schedule t ~delay f] is [schedule_at t ~time:(now t +. delay) f].
    Negative delays raise {!Past_event}. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** [schedule_monotone t ~times ~count f] schedules [f] at each of
    [times.(0 .. count-1)] — equivalent to [count] successive
    {!schedule_at} calls with the same action, but inserted through the
    heap's batch path ({!Event_heap.add_sorted}), so a sorted arrival
    run costs one capacity check and no per-call allocation.  Requires
    [times] nondecreasing with [times.(0) >= now t]; the batched events
    cannot be individually cancelled (no handles are returned). *)
val schedule_monotone :
  t -> times:float array -> count:int -> (unit -> unit) -> unit

(** [time_cell t] is the one-element array holding the virtual clock —
    [ (time_cell t).(0) = now t ] at all times.  Hot paths cache it once
    and read the clock as an unboxed array load instead of paying a
    boxed float return per {!now} call.  Treat it as read-only. *)
val time_cell : t -> float array

(** [cancel t h] prevents the event behind [h] from firing.  Cancelling
    an already-fired or already-cancelled event is a no-op. *)
val cancel : t -> handle -> unit

(** [cancelled t h] reports whether the event behind [h] will never
    fire in the future: true once cancelled or already fired. *)
val cancelled : t -> handle -> bool

(** [set_source t ~next ~fire] attaches an external ordered event
    source — the streaming driver's arrival cursor.  [next] is a
    one-element cell holding the time of the source's next event
    ([Float.infinity] when exhausted); the run loop merges the source
    with the event heap, firing whichever is earlier and letting the
    source win exact ties.  When the source is due, the clock advances
    to [next.(0)], the fired-event counter increments, and [fire] runs;
    [fire] must update [next.(0)] to the following event's time
    (nondecreasing — a regression raises {!Past_event}) or to
    [Float.infinity].  Source events never occupy the heap, so
    {!pending} and {!peak_pending} exclude them.  At most one source;
    a second call replaces the first. *)
val set_source : t -> next:float array -> fire:(unit -> unit) -> unit

(** [clear_source t] detaches the external source, if any. *)
val clear_source : t -> unit

(** [step t] fires the earliest pending event (heap or attached
    source).  Returns [false] when no events remain. *)
val step : t -> bool

(** [run t] fires events until the queue drains. *)
val run : t -> unit

(** [run_until t ~time] fires events with timestamps [<= time], then
    advances the clock to exactly [time]. *)
val run_until : t -> time:float -> unit

(** [events_fired t] counts events executed so far; exposed for tests
    and progress reporting. *)
val events_fired : t -> int

(** [set_on_event t hook] installs an observer called with the event's
    virtual time after each fired event (at most one; a second call
    replaces the first).  Used by the observability layer for
    progress/throughput tracking; adds one branch per event when
    unset. *)
val set_on_event : t -> (float -> unit) -> unit

val clear_on_event : t -> unit

(** Wall-clock engine throughput for one {!run_profiled} call. *)
type profile = { fired : int; wall_seconds : float; events_per_second : float }

(** [run_profiled t] is {!run} bracketed with the monotonic
    {!Clock}, reporting how many events fired and at what rate.
    Wall-clock jumps (NTP steps, etc.) cannot skew the numbers. *)
val run_profiled : t -> profile

(**/**)

(* Bookkeeping used by {!Process}; not part of the public surface. *)
val internal_adjust_processes : t -> int -> unit

val internal_processes : t -> int

(**/**)
