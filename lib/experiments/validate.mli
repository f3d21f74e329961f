(** Automated verification of the paper's headline claims.

    Each check re-runs the relevant experiment and tests the *shape*
    assertion the paper makes (who wins, by roughly what factor, which
    behavioral signature appears), printing PASS/FAIL.  This is the
    regression harness for the reproduction itself: if a refactor
    breaks a result the paper depends on, [run] says so. *)

type check = { name : string; ok : bool; detail : string }

(** [run ()] executes every claim check on the full-size workloads. *)
val run : unit -> check list

val all_passed : check list -> bool

val pp : Format.formatter -> check list -> unit
