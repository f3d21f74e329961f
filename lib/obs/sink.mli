(** Pluggable trace sinks.

    A sink is a few closures: [emit] consumes one event, [record] one
    request record, [flush] waits
    for work the sink does in the background, [close] finalizes
    whatever the sink writes.  Components never see
    sinks directly — they emit through {!Ctx} — so any number of sinks
    can observe one run, and attaching none costs a single branch per
    would-be event. *)

type t = {
  name : string;
  emit : Event.t -> unit;
  record :
    Record.source -> Record.kind -> id:int -> parent:int -> server:int ->
    fs:int -> client:int -> op:int -> unit;
      (** consumes one request record (see {!Record}), timed at its
          source's clock; a sink that keeps events builds the
          {!Record.to_event} of it *)
  flush : unit -> unit;
      (** waits until every event emitted before it has been handled
          (encoded, for the JSONL sink) and takes the sink's poller off
          the helper domain, if it used one; with no poller left the
          helper parks.  It does not write buffered bytes out: only
          [close] promises that.  It re-raises an error the helper
          met on the sink's behalf.  A no-op for sinks that do all
          their work in [emit]. *)
  close : unit -> unit;
      (** idempotent; flushes and releases whatever the sink holds *)
}

(** [make ?flush ?close ~name emit] is a sink that hands every event to
    [emit], request records as their {!Record.to_event}.  [flush] and
    [close] default to no-ops. *)
val make :
  ?flush:(unit -> unit) -> ?close:(unit -> unit) -> name:string ->
  (Event.t -> unit) -> t

(** Swallows everything. *)
val null : t

(** {2 In-memory ring buffer}

    Keeps the last [capacity] events; older ones are evicted in FIFO
    order.  This is the sink tests use to assert on emitted events
    without touching the filesystem. *)

module Ring : sig
  type ring

  val create : capacity:int -> ring

  val sink : ring -> t

  (** [contents r] lists retained events, oldest first. *)
  val contents : ring -> Event.t list

  val length : ring -> int

  (** [dropped r] counts events evicted to make room.  [sink]'s [close]
      reports a non-zero count on stderr so truncated traces are never
      silent. *)
  val dropped : ring -> int

  val clear : ring -> unit
end

(** {2 File writers} *)

(** [jsonl_channel oc] writes one {!Event.write_jsonl} line per event
    and the same line, through {!Record.write_jsonl}, per request
    record.  Lines are batched in a ~64 KiB {!Json.Writer} buffer
    (per-event syscall flushing distorts traced-run timings), which
    drains to [oc] once it holds 64 KiB and grows for a line larger
    than itself; [close] drains the buffer and flushes but leaves the
    channel open (the caller owns it).  An unclosed sink may hold
    buffered lines, so always close.

    Where {!Par.Helper} can run, encoding moves to the helper domain
    after the first 64 lines since creation or the last [flush]:
    [emit] and [record] store the event or the record in a block of 64
    lines and hand the block over once it is full ([flush] hands over
    a partial one), in a ring of four blocks.  The helper encodes the
    blocks handed over, and an emitter that finds all four taken
    encodes the oldest one the helper has not started itself rather
    than wait; whichever domain encodes a block, the lines reach the
    buffer and [oc] in the order they were emitted.  Until [flush] or
    [close] returns the helper may be writing to [oc], so the caller
    must leave [oc] alone.  An encode or write error on either domain
    is re-raised at the next [emit], [record], [flush] or [close], and
    the lines still in the ring are dropped. *)
val jsonl_channel : out_channel -> t

(** [jsonl_file path] opens [path] for writing; [close] closes it. *)
val jsonl_file : string -> t

(** [chrome_file path] writes the Chrome trace_event JSON-array format
    understood by [chrome://tracing] and Perfetto.
    {!Event.Span_begin}/{!Event.Span_end} pairs become async duration
    ("b"/"e") records keyed by span id, which render as nested flame
    charts; a span's parent, file set, epoch and typed attributes go
    in the "b" record's args, an end's outcome and attributes in the
    "e" record's.  Requests, moves, rounds and fault windows appear
    only as these spans; a ["tune"] span's per-server inputs and
    retuned regions also draw as "queue-depth" and "region-measure"
    counter tracks.  Every other event is an instant.  Virtual seconds
    map to trace microseconds.  [close] writes the
    closing bracket and closes the file. *)
val chrome_file : string -> t
