(** Text serialization of traces.

    One record per line: [time file_set op path_hash client demand],
    blank lines and [#] comments ignored; a [# duration: <seconds>]
    header carries the trace duration.  Five-field lines (without the
    client column) are accepted for compatibility and read back with
    client 0.  The format exists so that real
    DFSTrace-derived data (or any external workload) can be replayed
    through the simulator without recompiling. *)

val to_string : Trace.t -> string

(** [of_string s] parses; raises [Failure] with a line number on
    malformed input, including a [nan] or infinite time, demand or
    duration header.  Without a duration header the last record's time
    is used. *)
val of_string : string -> Trace.t

val save : Trace.t -> path:string -> unit

(** [load ~path] reads a trace file line-at-a-time (never holding the
    file as one string) and materializes it; lines may be in any time
    order.  Fails like {!of_string}, with [path] in the message. *)
val load : path:string -> Trace.t

(** [stream ~path] replays a trace file as a constant-memory
    {!Stream.t}: a pre-scan pass counts records, resolves the duration
    and the file-set universe, and checks the records are time-sorted
    (raising [Failure] with [path] and a line number otherwise — sorted
    input is the price of replay without materializing), and rejects
    what {!of_string} rejects; each cursor then re-reads the file one
    line at a time. *)
val stream : path:string -> Stream.t

(** [op_of_string] / [op_to_string] expose the operation encoding. *)
val op_of_string : string -> Sharedfs.Request.op option

val op_to_string : Sharedfs.Request.op -> string
