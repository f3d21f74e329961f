(** Sample statistics: retained-sample summaries, percentiles and fixed
    histograms.

    {!Sample} keeps every observation (the experiment scale here — a few
    hundred thousand requests — makes that cheap) so exact percentiles
    are available for reports.  {!Histogram} provides fixed-width
    binning for distribution shape checks in tests. *)

module Sample : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float

  val std_dev : t -> float

  val min_value : t -> float

  val max_value : t -> float

  (** [percentile t p] for [p] in [\[0, 100\]]; linear interpolation
      between order statistics.  Raises [Invalid_argument] when empty or
      [p] out of range. *)
  val percentile : t -> float -> float

  val median : t -> float

  (** [values t] is a fresh sorted copy of the observations. *)
  val values : t -> float array

  val total : t -> float

  val reset : t -> unit
end

module Histogram : sig
  type t

  (** [create ~lo ~hi ~bins] covers [\[lo, hi)] with [bins] equal bins
      plus underflow/overflow counters. *)
  val create : lo:float -> hi:float -> bins:int -> t

  val add : t -> float -> unit

  val count : t -> int

  (** [bin_counts t] excludes under/overflow. *)
  val bin_counts : t -> int array

  val underflow : t -> int

  val overflow : t -> int

  (** [bin_edges t] has [bins + 1] entries. *)
  val bin_edges : t -> float array
end

module Quantile : sig
  (** Constant-memory streaming quantile estimator over geometric
      (log-spaced) bins.  Values land in the bin whose edges bracket
      them, so a percentile is answered to within the bin ratio
      (2% relative error); exact min and max are tracked on the
      side.  Built for the streaming driver, where retaining millions
      of latencies for an exact percentile would defeat bounded
      memory. *)

  type t

  (** [create ()] covers [\[1e-6, 1e-6 * 1.02^1400)] with 1,400 bins,
      from a microsecond to over 1e6 seconds.  Values below 1e-6 count
      as underflow and resolve to the exact minimum. *)
  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val min_value : t -> float

  val max_value : t -> float

  (** [percentile t p] for [p] in [\[0, 100\]]: the geometric midpoint
      of the bin holding the rank, clamped to the observed extremes.
      Raises [Invalid_argument] when empty or [p] out of range. *)
  val percentile : t -> float -> float
end

(** [weighted_mean pairs] of [(value, weight)]; [0.0] when total weight
    is zero. *)
val weighted_mean : (float * float) list -> float

(** [median_of values] of a non-empty list. *)
val median_of : float list -> float

(** [coefficient_of_variation values] is std-dev / mean; [0.0] when the
    mean is zero. *)
val coefficient_of_variation : float list -> float

(** [imbalance values] is max/mean — 1.0 for perfectly balanced input;
    [0.0] for the empty list or zero mean. *)
val imbalance : float list -> float
