(** The structured trace-event taxonomy.

    Every lifecycle in a simulation is recorded once, as a span
    ({!t.Span_begin} and {!t.Span_end}, see {!Span}): a request and its
    stages, a file-set move, a delegate round with its collect, tune
    and apply stages, and a fault window (a crash, a partition, a disk
    stall, or a whole-domain fault).  A lifecycle's payload rides on
    the span edge where it becomes known, as typed {!attr}ibutes: a
    request's operation and client and a move's source and phase
    times on the begin, a move's replay count on the end, a round's
    inputs and average on its ["tune"] begin, its regions on the
    ["tune"] end, and the missing servers and survivor count of a
    degraded or skipped round on the round's end.  The other variants
    are instants: membership churn, point faults, fencing, ledger
    replay, re-addressing sweeps and invariant violations.  Events carry raw
    integers for server ids so that this library depends on nothing
    above it; emitters convert with [Server_id.to_int].

    Times are virtual simulation seconds.  All variants serialize to
    single-line JSON ({!to_jsonl}) and parse back exactly
    ({!of_jsonl}), which is what the JSONL sink writes. *)

type membership_change =
  | Failed
  | Recovered
  | Added of float  (** speed of the commissioned server *)
  | Speed_changed of float
  | Decommissioned
      (** planned removal: the server drains cleanly before going
          away, unlike {!Failed} *)

(** A point fault: one the injector delivers at an instant, with no
    window to bracket.  Each is traced as one {!t.Fault} event and
    counted under [fault.<name>].  Faults with a window (crashes,
    partitions, disk stalls, whole-domain faults) and interrupted
    moves are recorded by their spans alone; see {!window_edge}. *)
type fault_kind =
  | Delegate_crash
      (** the elected delegate's process dies mid-round; its
          divergent-tuning history is lost *)
  | Report_lost of { attempt : int }
      (** a server's latency report never reached the delegate *)
  | Report_delayed of { delay : float }
      (** the report arrived [delay] seconds late *)
  | Ledger_torn of { seq : int }
      (** an armed torn write truncated ledger record [seq] on disk *)

(** One server's contribution to a delegate round: the latency window
    it reported plus the queue depth the delegate observed when
    collecting. *)
type round_input = {
  server : int;
  mean_latency : float;
  max_latency : float;
  requests : int;
  queue_depth : int;
}

(** A typed span attribute: one constructor per key, so a key always
    carries the same type of value.  Attributes say what a span is
    about beyond its name and file set, and ride on the edge where the
    value becomes known: a {!t.Span_begin} or a {!t.Span_end}.  They
    encode as a trailing ["attrs"] object whose members keep list
    order, e.g. [,"attrs":{"client":3,"op":"open"}]; an edge without
    attributes writes no ["attrs"] field at all. *)
type attr =
  | Op of string  (** a request's metadata operation, e.g. ["open"] *)
  | Client of int  (** the client that issued the request *)
  | Src of int
      (** a move's source server; absent when the move adopts an
          orphaned set *)
  | Flush_seconds of float  (** a move's flush phase *)
  | Init_seconds of float  (** a move's cache-initialisation phase *)
  | Replayed of int  (** requests a committed move had buffered *)
  | Role of string
      (** the endpoint (["src"] or ["dst"]) whose crash interrupted a
          move; the set is orphaned, its buffered requests kept *)
  | Round of int  (** a delegate round's number, from 1 *)
  | Average of float  (** the system-wide average latency a round used *)
  | Inputs of round_input list  (** every server's report to a round *)
  | Regions of (int * float) list
      (** per-server region measure after a round's retuning *)
  | Domain of string  (** the failure domain a fault window hit *)
  | Link of string  (** a partition's lost link: ["cluster"] or ["disk"] *)
  | Members of int  (** servers a domain fault took down together *)
  | Factor of float  (** how much a disk stall slows transfers *)
  | Missing of int list
      (** servers whose reports never reached a ["degraded"] or
          ["skipped"] round *)
  | Survivors of int
      (** reports a ["degraded"] round was computed from; 0 for a
          ["skipped"] one *)

type t =
  | Membership of { time : float; server : int; change : membership_change }
  | Rehash_round of {
      time : float;
      trigger : string;  (** ["delegate-round"] or a membership action *)
      checked : int;  (** file sets whose address was recomputed *)
      moved : int;  (** file sets whose owner changed *)
    }
  | Fault of {
      time : float;
      server : int option;  (** the server the fault hit, when any *)
      fault : fault_kind;
    }
  | Fence of { time : float; server : int; action : string }
      (** a fencing transition at the shared disk: ["fenced"],
          ["unfenced"], ["write_rejected"] (a fenced server's write
          bounced off the disk) or ["epoch_bump"] (the delegate lease
          moved under a new epoch, fencing every stale believer) *)
  | Ledger_replay of {
      time : float;
      records : int;  (** valid records scanned *)
      torn : int;  (** torn records detected *)
      repaired : int;  (** torn records rewritten *)
      divergent : int;  (** file sets where ledger and memory disagreed *)
    }
  | Invariant_violation of { time : float; what : string }
      (** a safety-invariant check failed at [time]; chaos harnesses
          emit one event per violation so traces show exactly when a
          run went wrong *)
  | Span_begin of {
      time : float;
      id : int;  (** unique within a run; ids start at 1, 0 is "no span" *)
      parent : int option;  (** causal parent span, when nested *)
      name : string;  (** e.g. ["request"], ["queue"], ["move"], ["round"] *)
      cat : string;  (** lifecycle family: ["request"], ["move"], ["round"],
                         ["fault"], ["run"] *)
      server : int option;
      file_set : string option;
      epoch : int option;  (** lease epoch for delegate-round spans *)
      attrs : attr list;
          (** what became known as the span opened: a ["request"]
              span's [Client] and [Op], a ["move"]'s [Src],
              [Flush_seconds] and [Init_seconds], a ["round"]'s
              [Round], a ["tune"]'s [Average] and [Inputs], a fault
              window's [Domain], [Link], [Members] or [Factor] *)
    }
  | Span_end of {
      time : float;
      id : int;  (** matches the {!Span_begin} with the same id *)
      name : string;
      cat : string;
      server : int option;
          (** where the span closed; a ["request"] span's end names
              the server that completed it *)
      outcome : string option;
          (** how the span closed, e.g. ["commit"], ["orphan"],
              ["applied"], ["fenced"]; [None] for plain completion *)
      attrs : attr list;
          (** what became known as the span closed: a committed
              move's [Replayed], an interrupted move's [Role], a
              ["tune"]'s [Regions], a ["degraded"] or ["skipped"]
              ["round"]'s [Missing] and [Survivors]; [[]] on every
              other end *)
    }

(** [fault_name k] is the snake_case name of the fault kind, e.g.
    ["report_lost"] — the key used by fault counters and the JSON
    encoding. *)
val fault_name : fault_kind -> string

(** [window_edge ~name ~domain ~closing] names one edge of a fault
    window, a ["fault"]-category span, the way the fault counters
    ([fault.<name>]) and the trace-report timeline know it.  A
    ["crash"] span opens as ["server_crash"] and closes as
    ["server_recover"], a ["partition"] span as ["partition_cut"] and
    ["partition_healed"], each under a ["domain."] form
    (["domain.crash"], ["domain.recover"], ["domain.partition_cut"],
    ["domain.partition_healed"]) when [domain] says the span carries a
    {!Domain} attribute; a ["disk-stall"] span opens as
    ["disk_stall_start"] and closes as ["disk_stall_end"].  Any other
    name is returned as it is. *)
val window_edge : name:string -> domain:bool -> closing:bool -> string

val time : t -> float

(** [kind e] is the snake_case constructor name, e.g.
    ["span_begin"] — also the ["type"] field of the JSON
    encoding. *)
val kind : t -> string

(** [of_json j] decodes one event.  It rejects an unknown ["type"], a
    missing or mistyped field, and a non-finite ["time"] or float
    payload, naming the field. *)
val of_json : Json.t -> (t, string) result

(** [write_jsonl ?memo buf e] appends the compact one-line JSON
    encoding of [e] (no trailing newline) to [buf].  The fields appear
    in declaration order after ["type"] and ["time"]; numbers render as
    {!Json.number_to_string} renders them, and an event allocates
    nothing when its numbers lie in the exact renderer's range.
    [memo] carries rendered numbers across calls (a sink passes its
    own); without it each call starts fresh.  The output does not
    depend on [memo]. *)
val write_jsonl : ?memo:Json.memo -> Buffer.t -> t -> unit

(** [to_jsonl e] is {!write_jsonl}'s line as a string. *)
val to_jsonl : t -> string

val of_jsonl : string -> (t, string) result

val pp : Format.formatter -> t -> unit
