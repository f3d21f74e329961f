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

(** {2 Request spans}

    The request lifecycle's spans, typed: each entry point takes ints,
    reads the time from the cluster's clock cell and hands a
    {!Record} to the sinks, so a traced request builds no {!Event.t},
    option or attribute list.  The events a sink that keeps events
    sees are exactly those {!begin_} and {!end_} would emit: a
    ["request"] begin with its file set and [[Client; Op]], stage
    begins with their parent (and server, for queue and service), and
    ends with their server.  Like {!begin_}, a begin returns {!none}
    without sinks, and an end of {!none} is a no-op. *)
module Request : sig
  type t

  (** [create ctx ~clock ~file_sets ~ops]: [clock] is the simulator's
      time cell ([Desim.Sim.time_cell]), and a record's [fs] and [op]
      index [file_sets] and [ops]. *)
  val create :
    Ctx.t -> clock:float array -> file_sets:string array ->
    ops:string array -> t

  (** A ["request"] span opens at submission. *)
  val begin_ : t -> fs:int -> client:int -> op:int -> id

  val buffered_begin : t -> parent:id -> fs:int -> id

  val queue_begin : t -> parent:id -> server:int -> fs:int -> id

  val service_begin : t -> parent:id -> server:int -> fs:int -> id

  (** The ["request"] span closes on the server that completed it. *)
  val end_ : t -> id:id -> server:int -> unit

  val buffered_end : t -> id:id -> server:int -> unit

  val queue_end : t -> id:id -> server:int -> unit

  val service_end : t -> id:id -> server:int -> unit
end
