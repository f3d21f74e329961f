(** Fan-out of independent jobs (one full simulation each) over worker
    domains, built directly on OCaml 5's [Domain] — the opam switch
    carries no domainslib.

    Each job runs entirely on one domain; this is {e fan-out}, not
    intra-job parallelism, which is what keeps every simulation
    bit-deterministic — parallel and serial execution produce
    identical results, only wall-clock differs. *)

(** [run ~jobs thunks] executes the thunks with at most [jobs]
    concurrent domains and returns their results {e in input order} —
    the deterministic-ordering contract callers rely on for
    byte-identical output.  [jobs <= 1] runs everything serially in
    the calling domain with no domain spawn (the default code path);
    otherwise [min jobs (length thunks)] worker domains are spawned
    for the batch and joined before [run] returns.  If several thunks
    raise, the exception of the earliest thunk in input order is
    re-raised with its original backtrace (the others are discarded),
    after every thunk has finished. *)
val run : jobs:int -> (unit -> 'a) list -> 'a list
