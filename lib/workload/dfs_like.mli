(** DFSTrace-calibrated workload.

    The paper drives its trace experiments with a high-activity hour
    of the CMU DFSTrace data (Mummert & Satyanarayanan): 112,590
    requests over 21 file sets (one per traced workstation), with the
    most active set issuing more than one hundred times the requests
    of the least active ones, and visible bursts concentrated in a few
    sets.  The original traces are not distributable here, so this
    generator synthesizes a trace matching those published aggregate
    characteristics:

    - exactly [requests] arrivals over [duration] seconds;
    - [file_sets] sets whose base activity follows a power law with
      the configured max/min ratio;
    - per-set bursts: each set alternates between baseline and a
      multiplied burst rate over a random minority of one-minute
      slots, so load spikes hit few sets at a time, as in the paper's
      plots.

    All four placement policies consume the identical trace, so the
    comparative results the figures make (static policies degrade,
    prescient and ANU track each other) are preserved under the
    substitution. *)

type config = {
  file_sets : int;  (** 21 *)
  requests : int;  (** 112,590 *)
  duration : float;  (** 3600 s *)
  skew_ratio : float;  (** most/least active request ratio, > 100 *)
  burst_multiplier : float;  (** rate multiplier inside a burst slot *)
  burst_fraction : float;  (** fraction of slots that burst, per set *)
  slot_seconds : float;  (** burst-slot granularity *)
  mean_demand : float;
  demand_shape : int;
  seed : int;
}

val default_config : config

(** [stream config] is the pull-based form: sorted arrival times are
    pushed through the inverse CDF of the per-slot intensity mixture,
    so the trace's bursty temporal shape survives streaming.
    [generate] is exactly [Stream.to_trace (stream config)].  Its batch
    cursors are {!Stream.prefetch}ed.  Raises [Invalid_argument] on a
    non-positive count, a non-finite float, or a value outside its
    range. *)
val stream : config -> Stream.t

(** [generate config] materializes {!stream}.  File sets are named
    [dfs-ws00] ... after the traced-workstation partitioning. *)
val generate : config -> Trace.t

(** [base_weights config] is the stationary activity share per file
    set before burst modulation. *)
val base_weights : config -> (string * float) list
