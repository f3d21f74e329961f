(** Deterministic, splittable pseudo-random number generation.

    The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit
    counter advanced by a fixed odd gamma and finalized with an
    avalanching mixer.  It is fast, has no measurable bias for the use
    here (driving workload generators and placement randomness), and —
    crucially for a simulator — supports {!split}, which derives an
    independent stream so that adding one more consumer of randomness
    does not perturb the draws seen by existing consumers. *)

type t

(** [create seed] makes a fresh generator.  Equal seeds give equal
    streams. *)
val create : int -> t

(** [copy t] duplicates the generator state. *)
val copy : t -> t

(** [split t] advances [t] and returns a statistically independent
    generator. *)
val split : t -> t

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [bits53 t] is the next 53 high bits of a raw output, as a
    non-negative [int].  [float t] is exactly
    [float_of_int (bits53 t) *. unit_of_bits53]; unlike a [float], an
    [int] result is never boxed, so hot loops in other modules draw
    through this without allocating. *)
val bits53 : t -> int

(** [unit_of_bits53] is [2^-53]. *)
val unit_of_bits53 : float

(** [float t] is uniform on [\[0, 1)]. *)
val float : t -> float

(** [int t bound] is uniform on [\[0, bound)].  [bound] must be
    positive. *)
val int : t -> int -> int

(** [uniform t ~lo ~hi] is uniform on [\[lo, hi)]. *)
val uniform : t -> lo:float -> hi:float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [exponential t ~mean] draws from Exp with the given mean.
    [mean] must be positive. *)
val exponential : t -> mean:float -> float

(** [gamma t ~shape ~scale] draws from the Gamma distribution
    (Marsaglia–Tsang for [shape >= 1], boosting otherwise). *)
val gamma : t -> shape:float -> scale:float -> float

(** [erlang t ~shape ~mean] draws a low-variance positive service time:
    Gamma with integer [shape] and mean [mean] (CV = 1/sqrt shape). *)
val erlang : t -> shape:int -> mean:float -> float

(** [erlang_into t ~shape ~mean dst i] stores the next {!erlang} draw
    in [dst.(i)] without boxing it. *)
val erlang_into : t -> shape:int -> mean:float -> float array -> int -> unit

(** [normal t ~mu ~sigma] draws from N(mu, sigma^2) (Box–Muller). *)
val normal : t -> mu:float -> sigma:float -> float

(** [poisson t ~mean] draws a Poisson-distributed count.  Uses Knuth's
    product method for small means and PTRS rejection beyond. *)
val poisson : t -> mean:float -> int

(** [pareto t ~shape ~scale] draws from a Pareto distribution with
    minimum [scale]. *)
val pareto : t -> shape:float -> scale:float -> float

(** [zipf t ~n ~s] draws a rank in [\[1, n\]] with probability
    proportional to [1 / rank^s]. *)
val zipf : t -> n:int -> s:float -> int

(** [shuffle t arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [choose t arr] picks a uniform element of a non-empty array. *)
val choose : t -> 'a array -> 'a
