(** The storage area network data path.

    Clients send bulk data I/O straight to the shared disks over the
    SAN after obtaining metadata and locks from the servers; the SAN is
    engineered for high aggregate bandwidth.  The model is a shared
    pipe: transfers queue FIFO for the aggregate bandwidth (adequate
    here because the experiments only read its {e utilization} — the
    paper's motivating claim is that clients blocked on metadata leave
    the high-bandwidth SAN underutilized, which is a statement about
    when transfers start, not how they interleave). *)

type t

(** [create sim ~bandwidth] with [bandwidth] in bytes per second. *)
val create : Desim.Sim.t -> bandwidth:float -> t

val bandwidth : t -> float

(** [transfer t ~bytes] enqueues a data transfer.  Nothing is called
    back when it finishes; completed transfers are read from
    {!transfers_completed} and {!bytes_completed}. *)
val transfer : t -> bytes:int -> unit

(** Transfers finished so far. *)
val transfers_completed : t -> int

(** Bytes of the transfers finished so far. *)
val bytes_completed : t -> int

(** [utilization t ~until] is the fraction of time the pipe was busy. *)
val utilization : t -> until:float -> float
