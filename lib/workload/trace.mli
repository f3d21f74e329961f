(** Metadata request traces.

    A trace is a time-sorted sequence of metadata requests, each with a
    base service demand (speed-units x seconds; a speed-[s] server
    serves it in [demand * op_factor / s] seconds, before cache
    effects).  Traces drive the simulator; the prescient oracle reads
    windows of them ahead of time. *)

type record = { time : float; request : Sharedfs.Request.t; demand : float }

type t

(** [create ~duration records] sorts the records by time and validates
    them.  Raises [Invalid_argument] unless [duration] is positive and
    finite, every record falls within [\[0, duration\]] and every
    demand is positive and finite. *)
val create : duration:float -> record list -> t

(** [of_sorted_records ~duration records] builds a trace from records
    already in nondecreasing time order — the materialize path for
    {!Stream.to_trace}, which skips the sort.  Raises
    [Invalid_argument] if the records are out of order, or on what
    {!create} rejects. *)
val of_sorted_records : duration:float -> record list -> t

val records : t -> record array

val duration : t -> float

val length : t -> int

(** [file_sets t] lists distinct file-set names in first-appearance
    order. *)
val file_sets : t -> string list

(** [window_demand t ~lo ~hi] sums effective demand
    (demand x op factor) per file set over arrivals in [\[lo, hi)].
    This is the prescient oracle's view of the future. *)
val window_demand : t -> lo:float -> hi:float -> (string * float) list

(** [counts_by_file_set t] tallies requests per file set. *)
val counts_by_file_set : t -> (string * int) list

(** [activity_skew t] is the ratio of the most to the least active
    file set's request count (1.0 for <= 1 file set). *)
val activity_skew : t -> float

(** [total_demand t] sums effective demand over the whole trace. *)
val total_demand : t -> float

(** [op_mix] is the operation distribution used by both generators:
    the stat-heavy mix typical of workstation file traces, as
    cumulative (op, probability mass) pairs. *)
val op_mix : (Sharedfs.Request.op * float) list

(** [sample_op rng] draws from {!op_mix}. *)
val sample_op : Desim.Rng.t -> Sharedfs.Request.op

(** [merge a b] interleaves two traces over the longer duration. *)
val merge : t -> t -> t
