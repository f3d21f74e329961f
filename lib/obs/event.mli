(** The structured trace-event taxonomy.

    Every interesting state transition in a simulation maps to one
    variant here: request life cycle, file-set movement, delegate
    reconfiguration rounds (with the per-server latency inputs and the
    region-scale decisions they produced), membership churn and
    re-addressing sweeps.  Events carry raw integers for server ids so
    that this library depends on nothing above it; emitters convert
    with [Server_id.to_int].

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

(** What a fault injector did to the run.  Every injected fault is
    traced as one {!t.Fault} event so a chaos run's trace is a
    complete, replayable fault log. *)
type fault_kind =
  | Server_crash  (** injected hard crash of a server *)
  | Server_recover  (** injected recovery of a crashed server *)
  | Delegate_crash
      (** the elected delegate's process dies mid-round; its
          divergent-tuning history is lost *)
  | Report_lost of { attempt : int }
      (** a server's latency report never reached the delegate *)
  | Report_delayed of { delay : float }
      (** the report arrived [delay] seconds late *)
  | Move_interrupted of { role : string }
      (** a file-set move died with the [role] (["src"] or ["dst"])
          server; the set is orphaned, its buffered requests kept *)
  | Disk_stall_start of { factor : float; duration : float }
      (** shared-disk transfers slow down by [factor] *)
  | Disk_stall_end
  | Partition_cut of { link : string }
      (** the server lost its [link] (["cluster"] or ["disk"]) and was
          fenced at the shared disk *)
  | Partition_healed of { link : string }
      (** the partition healed; the server rejoins via recovery *)
  | Ledger_torn of { seq : int }
      (** an armed torn write truncated ledger record [seq] on disk *)
  | Domain_crash of { domain : string; members : int }
      (** a whole failure domain ([members] servers) hard-crashed at
          once — one atomic correlated fault, not [members] events *)
  | Domain_recover of { domain : string; members : int }
      (** every server of the crashed domain came back together *)
  | Domain_partition_cut of { domain : string; link : string; members : int }
      (** the whole domain lost its [link] and was fenced *)
  | Domain_partition_healed of {
      domain : string;
      link : string;
      members : int;
    }  (** the domain-wide partition healed *)

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

type t =
  | Request_submit of {
      time : float;
      file_set : string;
      op : string;
      client : int;
    }
  | Request_complete of {
      time : float;  (** completion time; submission was [time - latency] *)
      server : int;
      file_set : string;
      op : string;
      latency : float;
    }
  | Move_start of {
      time : float;
      file_set : string;
      src : int option;  (** [None] for recovery of an orphaned set *)
      dst : int;
      flush_seconds : float;
      init_seconds : float;
    }
  | Move_end of {
      time : float;
      file_set : string;
      dst : int;
      replayed : int;  (** requests buffered during the move *)
    }
  | Delegate_round of {
      time : float;
      round : int;
      delegate : int option;
      average : float;  (** system-wide average latency the round used *)
      inputs : round_input list;
      regions : (int * float) list;
          (** per-server region measure {e after} retuning; empty for
              policies without region geometry *)
    }
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
      file_set : string option;  (** the file set involved, when any *)
      fault : fault_kind;
    }
  | Round_degraded of {
      time : float;
      round : int;
      missing : int list;  (** servers whose reports never arrived *)
      survivors : int;  (** reports the round was computed from *)
      skipped : bool;
          (** true when the survivors missed quorum and the round
              tuned nothing *)
    }
  | Fence of { time : float; server : int; action : string }
      (** a fencing transition at the shared disk: ["fenced"],
          ["unfenced"], ["write_rejected"] (a fenced server's write
          bounced off the disk) or ["epoch_bump"] (the delegate lease
          moved under a new epoch, fencing every stale believer) *)
  | Partition of {
      time : float;
      server : int;
      link : string;  (** ["cluster"] or ["disk"] *)
      healed : bool;  (** false when the partition opens, true on heal *)
    }
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
    }
  | Span_end of {
      time : float;
      id : int;  (** matches the {!Span_begin} with the same id *)
      name : string;
      cat : string;
      server : int option;
      outcome : string option;
          (** how the span closed, e.g. ["commit"], ["orphan"],
              ["applied"], ["fenced"]; [None] for plain completion *)
    }

(** [fault_name k] is the snake_case name of the fault kind, e.g.
    ["report_lost"] — the key used by fault counters and the JSON
    encoding. *)
val fault_name : fault_kind -> string

val time : t -> float

(** [kind e] is the snake_case constructor name, e.g.
    ["request_complete"] — also the ["type"] field of the JSON
    encoding. *)
val kind : t -> string

val of_json : Json.t -> (t, string) result

(** [write_jsonl ?memo buf e] appends the compact one-line JSON
    encoding of [e] (no trailing newline) to [buf].  The fields appear
    in declaration order after ["type"] and ["time"]; numbers render as
    {!Json.number_to_string} renders them.  [memo] carries formatted
    numbers across calls (a sink passes its own); without it each call
    starts fresh.  The output does not depend on [memo]. *)
val write_jsonl : ?memo:Json.memo -> Buffer.t -> t -> unit

(** [to_jsonl e] is {!write_jsonl}'s line as a string. *)
val to_jsonl : t -> string

val of_jsonl : string -> (t, string) result

val pp : Format.formatter -> t -> unit
