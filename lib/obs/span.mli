(** Causal spans: begin/end pairs with parent links.

    A span is two events sharing an id: {!Event.Span_begin} at the
    start of a lifecycle stage and {!Event.Span_end} when it closes,
    optionally with an outcome.  Parent links turn a trace into a
    forest — request → queue → service, round → collect/tune/apply —
    which the Chrome sink renders as nested flame charts and the
    forensics engine joins for latency attribution.

    Spans are the only record of every lifecycle: a request, a move,
    a delegate round and a fault window each write one begin and one
    end, nothing beside them.  The ["request"] span opens at
    submission with the file set and the typed attributes [Client]
    and [Op], and closes at completion on the serving server.  Its children are the stages that actually
    happened: ["buffered"] while the request waits out a move,
    ["queue"] only when the server was busy at delivery (so every
    queue span has positive width), and ["service"], written only
    after a buffered or queue stage or on redelivery after a crash.  A
    request that never waits writes two lines, its request begin and
    end; its service is the request span's whole width.

    The whole layer is free when tracing is off: {!begin_} returns
    {!none} without allocating, and {!end_} on {!none} is a no-op, so
    instrumented components pay one branch per would-be span. *)

type id = int

(** The null span id (0).  Returned by {!begin_} when tracing is
    disabled; {!end_} ignores it; never allocated to a real span. *)
val none : id

(** [begin_ ctx ~time ?parent ~name ~cat ?server ?file_set ?epoch
    ?attrs ()] opens a span and returns its id, or {!none} when [ctx]
    has no sinks.  A [parent] of {!none} is treated as no parent, so
    ids can be threaded through without re-guarding.  [attrs]
    (default [[]]) is built by the caller, so callers that pass it
    guard on {!Ctx.tracing} first to keep the disabled path free. *)
val begin_ :
  Ctx.t ->
  time:float ->
  ?parent:id ->
  name:string ->
  cat:string ->
  ?server:int ->
  ?file_set:string ->
  ?epoch:int ->
  ?attrs:Event.attr list ->
  unit ->
  id

(** [end_ ctx ~time ~id ~name ~cat ?server ?outcome ?attrs ()] closes
    span [id]; no-op when [id] is {!none}.  [name]/[cat] are repeated
    so sinks stay stateless.  [attrs] (default [[]]) carries what
    became known as the span closed, under the same guard as
    {!begin_}'s. *)
val end_ :
  Ctx.t ->
  time:float ->
  id:id ->
  name:string ->
  cat:string ->
  ?server:int ->
  ?outcome:string ->
  ?attrs:Event.attr list ->
  unit ->
  unit
