(** Request-lifecycle records: a request's spans without an {!Event.t}.

    A traced request writes up to eight span edges: the ["request"]
    span and its ["buffered"], ["queue"] and ["service"] stages, each a
    begin and an end (see {!Span}).  They are most of a traced run's
    events, so they leave the cluster as fixed-width records of ints —
    a {!kind}, the span id, its parent, the server, the file-set and
    operation indexes and the client — plus the time, read from the
    simulator's time cell.  A record allocates nothing on its way to a
    sink: the JSONL sink stores it in columns and writes it through
    {!write_jsonl}'s templates, and the sinks that keep events build
    the equivalent {!Event.t} with {!to_event}.

    Which fields a record carries is fixed by its kind: a request begin
    has its file set, client and operation and no parent or server; a
    buffered begin its parent and file set; a queue or service begin its
    parent, server and file set; every end its server.  Fields a kind
    does not carry are ignored. *)

type kind =
  | Request_begin
  | Request_end
  | Buffered_begin
  | Buffered_end
  | Queue_begin
  | Queue_end
  | Service_begin
  | Service_end

(** Where a record's names and time come from: one per cluster.
    [file_sets.(fs)] and [ops.(op)] name a record's indexes, and
    [clock.(0)] is the current virtual time ([Desim.Sim.time_cell]). *)
type source = {
  clock : float array;
  file_sets : string array;
  ops : string array;
}

(** [to_event src kind ~id ~parent ~server ~fs ~client ~op ~time] is the
    span edge the record stands for, as {!Span.begin_} and {!Span.end_}
    would emit it: a parent of 0 is no parent, and a request begin's
    attributes are [[Client client; Op ops.(op)]]. *)
val to_event :
  source -> kind -> id:int -> parent:int -> server:int -> fs:int ->
  client:int -> op:int -> time:float -> Event.t

(** Pre-quoted JSON fragments for one source's file sets and
    operations. *)
type templates

val templates : source -> templates

val source : templates -> source

(** [write_jsonl w tpl kind ~id ~parent ~server ~fs ~client ~op ~times
    ~at] appends exactly what {!Event.write_jsonl} appends for the
    {!to_event} of the record timed [times.(at)] (a clock cell, or a
    sink's column of times).  It allocates nothing when the numbers lie
    in {!Json.Writer}'s exact range and [w] has room: the time is read
    unboxed. *)
val write_jsonl :
  Json.Writer.t -> templates -> kind -> id:int -> parent:int ->
  server:int -> fs:int -> client:int -> op:int -> times:float array ->
  at:int -> unit
