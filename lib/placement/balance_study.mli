(** Balls-and-bins analysis of placement variance (Section 4's bound).

    The paper states that ANU's load per server is O(m/n) with high
    probability for m file sets on n servers — as tight as any known
    bound — versus simple randomization's O(m log n / n) envelope, and
    that region scaling beats simple randomization {e even when
    everything is homogeneous} because scaling absorbs hashing
    variance.  This module measures those statements: it places [m]
    uniform file sets on [n] servers under three mechanisms and
    reports the max/mean load ratio distribution over many trials.

    - [Simple]: each set hashes directly to a server (the classic
      one-choice balls-in-bins, max/mean ~ 1 + sqrt(n ln n / m)).
    - [Anu_static]: ANU addressing with equal regions and no tuning —
      same variance class as [Simple], shown for calibration.
    - [Anu_tuned]: ANU addressing after feedback rounds that rescale
      regions from the observed counts (the "server scaling results in
      better load balance than simple randomization even when all
      servers and all file sets are homogeneous" claim). *)

type mechanism = Simple | Anu_static | Anu_tuned

val mechanism_name : mechanism -> string

type result = {
  mechanism : mechanism;
  servers : int;
  file_sets : int;
  trials : int;
  mean_ratio : float;  (** average over trials of max load / mean load *)
  worst_ratio : float;
  p95_ratio : float;
}

(** [study ~servers ~file_sets ~trials ~tuning_rounds ~seed mechanism]
    runs the experiment.  [tuning_rounds] only affects [Anu_tuned]. *)
val study :
  servers:int ->
  file_sets:int ->
  trials:int ->
  tuning_rounds:int ->
  seed:int ->
  mechanism ->
  result

(** [compare_all ~servers ~file_sets ~trials ~seed] runs the three
    mechanisms with the default tuning depth. *)
val compare_all :
  servers:int -> file_sets:int -> trials:int -> seed:int -> result list
