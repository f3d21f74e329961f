(** The metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Components register an instrument once (at construction time) and
    bump it on the hot path: a counter increment is one integer add, a
    gauge set is one float store, a histogram observation is one binary
    search over a small bucket array.  Registration is idempotent —
    asking for an existing name returns the same instrument — so
    instruments survive the re-creation of the component that uses
    them and several components may share one series.

    {!snapshot} freezes everything into plain data for reports;
    {!pp_snapshot} renders the aligned table behind the CLI's
    [--metrics] flag. *)

type t

val create : unit -> t

module Counter : sig
  type c

  val incr : c -> unit

  val add : c -> int -> unit

  val value : c -> int
end

module Gauge : sig
  type g

  val set : g -> float -> unit

  (** [set_int g n] is [set g (float_of_int n)] without boxing the
      float on the way. *)
  val set_int : g -> int -> unit

  val value : g -> float
end

module Histogram : sig
  type h

  (** [observe h x] records one value; it allocates nothing. *)
  val observe : h -> float -> unit

  val count : h -> int

  val sum : h -> float

  val mean : h -> float

  (** [percentile h p] for [p] in [\[0, 100\]], estimated by linear
      interpolation inside the bucket holding the target rank and
      clamped to the observed min/max; [0.0] when empty.  The error is
      bounded by the width of that bucket. *)
  val percentile : h -> float -> float

  val max_value : h -> float

  val min_value : h -> float

  (** [bounds h] is the (sorted, strictly increasing) upper-bound
      array the histogram was registered with. *)
  val bounds : h -> float array
end

(** [counter t name] registers (or retrieves) a counter. *)
val counter : t -> string -> Counter.c

val gauge : t -> string -> Gauge.g

(** [histogram ?bounds t name] registers (or retrieves) a histogram.
    [bounds] are bucket upper bounds, sorted strictly increasing
    (values above the last bound land in an implicit overflow bucket);
    defaults to {!default_latency_bounds}.  Re-registering an existing
    name ignores [bounds] and returns the existing instrument. *)
val histogram : ?bounds:float array -> t -> string -> Histogram.h

(** Log-spaced bucket bounds for request latencies in seconds: five
    buckets per decade from 10 microseconds to 10,000 seconds. *)
val default_latency_bounds : float array

(** [reset t] zeroes every registered instrument (registrations
    survive).  Note the runner no longer resets a shared registry —
    it derives a fresh one per run via [Obs.Ctx.isolated], which is
    what keeps concurrent runs domain-safe. *)
val reset : t -> unit

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

val snapshot : t -> snapshot

(** [snapshot_to_json s] is a machine-diffable JSON object with
    ["counters"], ["gauges"] and ["histograms"] members, each keyed by
    instrument name (sorted) — the payload behind [--metrics-json]. *)
val snapshot_to_json : snapshot -> Json.t

val pp_snapshot : Format.formatter -> snapshot -> unit
