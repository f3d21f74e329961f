(** The observability context threaded through a simulation.

    A context bundles zero or more trace {!Sink}s with an optional
    {!Metrics} registry and an optional {!Telemetry} registry.
    Components hold one and guard their instrumentation on {!tracing} /
    {!metrics} / {!telemetry}, so that the default {!null} context
    costs one branch per call site and no allocation — the overhead
    contract DESIGN.md documents. *)

type t

(** No sinks, no metrics, no telemetry.  [emit] and [close] are
    no-ops. *)
val null : t

val create :
  ?sinks:Sink.t list -> ?metrics:Metrics.t -> ?telemetry:Telemetry.t ->
  unit -> t

(** [tracing t] is true when at least one sink is attached.  Call
    sites test it {e before} building an event (or opening a span) so
    that disabled tracing never allocates. *)
val tracing : t -> bool

val metrics : t -> Metrics.t option

val telemetry : t -> Telemetry.t option

(** [isolated t] is [t] with fresh per-run instruments: a fresh metrics
    registry when [t] carries one, a fresh (empty, same-config)
    telemetry registry when [t] carries one, and always a fresh span-id
    counter.  Sinks are shared, unchanged, and so is their one
    emitting domain (see {!emit}).  The runner derives one isolated
    context per run so that untraced runs on separate domains never
    share mutable instruments and span ids are deterministic per run;
    each run's snapshot then covers exactly that run. *)
val isolated : t -> t

(** [alloc_span t] draws the next span id (ids start at 1; 0 is
    reserved as {!Span.none}).  Only call under a [tracing] guard and
    from the run's own domain — the counter is intentionally unlocked
    because isolated contexts are single-domain. *)
val alloc_span : t -> int

(** [emit t e] hands [e] to every sink, in attachment order; a no-op
    without sinks.  A context with sinks has one emitting domain: the
    domain of its first event, shared with every context {!isolated}
    from it.  Sinks take no lock, so an [emit], {!record} or {!flush}
    from any other domain raises [Invalid_argument] before it reaches
    a sink, and what was emitted so far stays whole.  Traced runs
    therefore go one after another on one domain
    ([Experiments.Figures.fan_out] runs them serially). *)
val emit : t -> Event.t -> unit

(** [record t src kind ~id ~parent ~server ~fs ~client ~op] hands one
    request record (see {!Record}) to every sink, under {!emit}'s
    one-domain rule.  Only call under a [tracing] guard; {!Span.Request}
    is its typed front. *)
val record :
  t -> Record.source -> Record.kind -> id:int -> parent:int -> server:int ->
  fs:int -> client:int -> op:int -> unit

(** [flush t] calls every sink's [flush], in attachment order, from
    the emitting domain (another raises [Invalid_argument], as in
    {!emit}): when it returns, every event emitted before it has been
    handled (encoded, for a JSONL sink) and no sink keeps the helper
    domain ({!Par.Helper}) busy.  It re-raises an error a sink's helper
    met.  The runner flushes at the end of every run. *)
val flush : t -> unit

(** [snapshot t] is the metrics snapshot, when a registry is
    attached. *)
val snapshot : t -> Metrics.snapshot option

(** [close t] closes every sink (idempotent). *)
val close : t -> unit
