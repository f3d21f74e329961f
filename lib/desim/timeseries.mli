(** Interval-bucketed time series.

    Observations carry a timestamp; the series aggregates them into
    consecutive buckets of fixed width starting at time zero.  This is
    the structure behind every latency-versus-time plot in the paper:
    each point is the mean latency of the requests completed during that
    bucket. *)

type t

type point = {
  bucket_start : float;
  mean : float;  (** mean of observations in the bucket; 0 if empty *)
  count : int;
  max : float;  (** 0 if the bucket is empty *)
}

(** [create ~interval] starts a series with bucket width [interval]
    (must be positive). *)
val create : interval:float -> t

(** [observe t ~clock value] adds an observation at [clock.(0)], a
    clock cell such as [Sim.time_cell]: the time is read unboxed, so
    the call allocates nothing when [value] arrives boxed.  Out-of-order
    times are accepted as long as they fall in the current or a later
    bucket; times before the current bucket raise [Invalid_argument]. *)
val observe : t -> clock:float array -> float -> unit

(** [observe_int t ~clock n] observes [float_of_int n] at [clock.(0)],
    allocating nothing. *)
val observe_int : t -> clock:float array -> int -> unit

(** [observe_at t ~clock values i] observes [values.(i)] at
    [clock.(0)], reading both unboxed: it allocates nothing. *)
val observe_at : t -> clock:float array -> float array -> int -> unit

(** [finish t ~until] closes all buckets up to (and including the one
    containing) [until] and returns every point in order.  Empty buckets
    between observations are materialized with [count = 0]. *)
val finish : t -> until:float -> point list

val interval : t -> float
