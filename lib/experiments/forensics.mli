(** Offline trace forensics — the analysis engine behind
    [shdisk-sim trace-report].

    Loads a JSONL trace (written by [run --trace-jsonl]) back into
    memory, joins span begin/end pairs by id, and answers post-mortem
    queries over any time window: where latency went (queueing vs
    service vs move-induced buffering), which servers and file sets
    were hot, what faults and fences fired, and — for each invariant
    violation — the causal slice of preceding events that touched the
    implicated server or file set.

    Everything is deterministic: equal trace bytes and equal query
    parameters produce byte-equal reports (ties in the hot-entity
    rankings break on entity id/name). *)

type t
(** A loaded trace: the event sequence plus the joined span index. *)

(** [load path] reads and parses a JSONL trace.  Errors carry the file
    and line of the first malformed record. *)
val load : string -> (t, string) result

val length : t -> int

type attribution = {
  requests : int;  (** completed request spans in the window *)
  unclosed : int;  (** request spans that never closed (crash-lost) *)
  request_seconds : float;
  queue_seconds : float;
  service_seconds : float;
      (** service spans, plus the whole width of each request span
          with no stage (delivered once, at submission, to an idle
          server) *)
  buffered_seconds : float;  (** move-induced: waiting out a transfer *)
}

type hot_server = { server : int; completions : int; mean_latency : float }

type hot_file_set = { file_set : string; completions : int }

type entry = { time : float; line : string }

type violation = {
  at : float;
  what : string;
  servers : int list;  (** implicated server ids parsed from [what] *)
  file_sets : string list;  (** implicated file sets parsed from [what] *)
  slice : entry list;
      (** the closest preceding operational events touching an
          implicated entity, oldest first *)
}

type report = {
  path : string option;
  events : int;  (** events inside the window *)
  from_ : float;
  until : float;
  top : int;
  attribution : attribution;
  servers : hot_server list;
  file_sets : hot_file_set list;
  faults : entry list;  (** fault/fence/membership/violation timeline *)
  violations : violation list;
}

(** [analyze ?from_ ?until ?top ?path t] runs every query over the
    window [[from_, until]] (default: the whole trace).  A closed span
    belongs to the window when its end time does; an unclosed one when
    its begin time does.  [top] bounds the hot-entity rankings
    (default 5).  [path] is echoed in the report header. *)
val analyze :
  ?from_:float -> ?until:float -> ?top:int -> ?path:string -> t -> report

val pp_report : Format.formatter -> report -> unit
