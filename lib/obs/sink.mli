(** Pluggable trace sinks.

    A sink is just a pair of closures: [emit] consumes one event,
    [close] finalizes whatever the sink writes.  Components never see
    sinks directly — they emit through {!Ctx} — so any number of sinks
    can observe one run, and attaching none costs a single branch per
    would-be event. *)

type t = {
  name : string;
  emit : Event.t -> unit;
  close : unit -> unit;
      (** idempotent; flushes and releases whatever the sink holds *)
}

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

(** [jsonl_channel oc] writes one {!Event.write_jsonl} line per event.
    Lines are batched in a ~64 KiB buffer (per-event syscall flushing
    distorts traced-run timings); [close] drains the buffer and flushes
    but leaves the channel open (the caller owns it).  An unclosed sink
    may hold buffered events, so always close. *)
val jsonl_channel : out_channel -> t

(** [jsonl_file path] opens [path] for writing; [close] closes it. *)
val jsonl_file : string -> t

(** [chrome_channel oc] writes the Chrome trace_event JSON-array format
    understood by [chrome://tracing] and Perfetto.
    {!Event.Span_begin}/{!Event.Span_end} pairs become async duration
    ("b"/"e") records keyed by span id, which render as nested flame
    charts; a span's parent, file set, epoch and typed attributes (a
    request's [client] and [op]) go in the "b" record's args.
    Requests appear only as these spans.  Moves become complete ("X")
    slices on the destination's track, delegate rounds become instant
    events plus "queue-depth" and "region-measure" counter tracks.
    Virtual seconds map to trace microseconds.  [close] writes the
    closing bracket and flushes; the caller owns the channel. *)
val chrome_channel : out_channel -> t

(** [chrome_file path] is {!chrome_channel} on a fresh file; [close]
    closes it. *)
val chrome_file : string -> t
