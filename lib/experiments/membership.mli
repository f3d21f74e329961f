(** Movement on membership change: ANU vs simple randomization vs
    consistent hashing.

    ANU's failure/recovery handling claims to move the minimum
    possible workload — only the failed server's file sets re-hash,
    survivors just scale up.  Simple randomization (hash mod n)
    reshuffles nearly everything when n changes; consistent hashing
    moves only adjacent arcs but cannot be tuned.  This study makes
    the comparison concrete: place [file_sets] sets on [servers]
    servers, fail one, count owner changes among sets the failed
    server did {e not} own (the unavoidable ones are exactly its own
    sets), then recover it and count again. *)

type mechanism = Simple_random | Consistent_hash | Anu

type result = {
  mechanism : mechanism;
  file_sets : int;
  servers : int;
  owned_by_failed : int;  (** sets that must move no matter what *)
  collateral_on_failure : int;  (** moved sets the failed server did not own *)
  moved_on_recovery : int;  (** owner changes when the server returns *)
}

val study :
  servers:int -> file_sets:int -> failed:int -> seed:int -> mechanism -> result

val compare_all :
  servers:int -> file_sets:int -> failed:int -> seed:int -> result list
