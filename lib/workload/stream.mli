(** Pull-based request streams: the constant-memory face of every
    workload generator.

    A stream describes a workload without materializing it: requests
    are produced one at a time, in nondecreasing time order, by a
    cursor obtained from {!start}.  Cursors are independent — each
    re-derives the full sequence from the generator's seed, so the
    same stream can be consumed twice (the simulation driver and the
    prescient oracle each hold one) and always yields the identical
    sequence.  {!to_trace} materializes a stream into a {!Trace.t} for
    tests and small runs; generators define [generate] as exactly
    that, so streamed and materialized workloads agree record for
    record at equal seeds. *)

type item = {
  time : float;
  fs : int;
      (** dense file-set id: the index of [request.file_set] in
          {!file_sets} — equal to the id a {!File_set.Interner} built
          over the same list assigns, so drivers never hash names *)
  request : Sharedfs.Request.t;
  demand : float;
}

(** A cursor yields the next request, or [None] when the stream is
    exhausted.  Times never decrease across successive calls. *)
type cursor = unit -> item option

(** Column layout for the allocation-free driver path: parallel arrays,
    one per {!item} field, with the file set as its dense id only.  A
    batch cursor writes rows instead of building [item] / [Request.t]
    records, which is what keeps the streaming driver's per-request
    allocation near zero. *)
type cols = {
  times : float array;
  fs : int array;
  ops : Sharedfs.Request.op array;
  path : int array;
  client : int array;
  demand : float array;
}

(** [fill cols] writes at most [Array.length cols.times] rows and
    returns how many it wrote; [0] means exhausted.  Successive calls
    continue the sequence, and times never decrease across the whole
    stream — a batch cursor yields exactly the rows the item cursor
    yields, field for field. *)
type batch_cursor = cols -> int

(** [make_cols n] allocates a column buffer of capacity [n]. *)
val make_cols : int -> cols

(** [prefetch ~rows inner] is [inner] run ahead of its consumer on the
    shared helper domain ({!Par.Helper}): the helper fills a small fixed
    ring of column buffers (4 x 256 rows) and the returned cursor
    copies rows out of it, on the caller's domain.  It yields exactly
    the rows of [inner], in order, and re-raises an exception of
    [inner] with its backtrace.  [rows] is the number of rows [inner]
    yields in all.

    The cursor attaches to the helper on its second call (the first is
    a run's set-up) when more rows remain than the ring holds and
    {!Par.Helper.available} holds (the main domain of a host with more
    than one core); otherwise, and when [rows] is that small to begin
    with, [inner] runs on the caller.  Whichever side finds work calls
    [inner]: the helper while the ring has a free slot, the consumer
    when it finds the ring empty, so neither the helper's start-up nor
    a slow helper stalls a call.  The cursor leaves the helper when
    [inner] is exhausted or raises, or once the cursor is garbage
    collected. *)
val prefetch : rows:int -> batch_cursor -> batch_cursor

type t

(** [make ~duration ~total ~file_sets ~fresh ()] wraps a generator.
    [file_sets] lists every name the stream may emit, in id order;
    [total] is the exact number of items a cursor yields; [fresh]
    builds an independent cursor positioned at the first request.
    [fresh_batch] builds an independent {e batch} cursor producing the
    identical sequence in column form; without it, the batch cursor
    copies the rows out of a [fresh] item cursor.  Raises
    [Invalid_argument] unless [duration] is positive and finite, or if
    [total] is negative. *)
val make :
  ?fresh_batch:(unit -> batch_cursor) ->
  duration:float ->
  total:int ->
  file_sets:string list ->
  fresh:(unit -> cursor) ->
  unit ->
  t

val duration : t -> float

(** [total t] is the exact number of requests a cursor yields. *)
val total : t -> int

(** [file_sets t] lists file-set names in dense-id order (the order
    {!item.fs} indexes). *)
val file_sets : t -> string list

(** [start t] begins an independent replay of the stream. *)
val start : t -> cursor

(** [start_batch t] begins an independent column-form replay.  Every
    stream has one (see {!make}), so the result is never [None]. *)
val start_batch : t -> batch_cursor option

val iter : (item -> unit) -> t -> unit

(** [to_trace t] materializes the whole stream — O(total) memory; the
    adapter for tests and the legacy trace-driven driver. *)
val to_trace : t -> Trace.t

(** [of_trace trace] streams an already-materialized trace; ids follow
    {!Trace.file_sets} (first-appearance) order. *)
val of_trace : Trace.t -> t

(** [sorted_uniforms rng ~n ~lo ~hi] draws the order statistics of [n]
    uniforms on [\[lo, hi\]] one at a time, in nondecreasing order,
    using one [rng] draw per value: generators use it to emit
    uniform-in-time workloads already sorted.  The returned thunk
    raises [Invalid_argument] past [n] calls. *)
val sorted_uniforms :
  Desim.Rng.t -> n:int -> lo:float -> hi:float -> unit -> float
