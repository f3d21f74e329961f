(** File/data lock service.

    Storage Tank servers grant file and data locks to clients before
    the clients touch the SAN.  The manager here implements the usual
    shared/exclusive semantics with FIFO queueing of incompatible
    requests, per (file-set, file) key.  Ownership of a file set's
    locks travels with the file set: {!export} hands the lock state of
    a set to the acquiring server. *)

type mode = Shared | Exclusive

type client = int

type key = { fs : int; ino : int }
(** [fs] is the interned file-set id ({!File_set.Interner}). *)

type t

(** [create ()] makes an empty lock table.  [size] hints the initial
    hash-table capacity: a cluster-wide table keeps the default, the
    cluster's per-file-set tables use a small one. *)
val create : ?size:int -> unit -> t

(** [acquire t ~key ~client ~mode] grants immediately when compatible
    and returns [`Granted]; otherwise the request queues and
    [`Queued] is returned. *)
val acquire : t -> key:key -> client:client -> mode:mode -> [ `Granted | `Queued ]

(** [release t ~key ~client] drops the client's lock (or queued
    request) on [key] and returns the clients whose queued requests
    were granted as a result. *)
val release : t -> key:key -> client:client -> client list

(** [holders t ~key] lists current holders with their modes. *)
val holders : t -> key:key -> (client * mode) list

(** [holds t ~key ~client] is [true] when [client] holds [key]. *)
val holds : t -> key:key -> client:client -> bool

(** [stamp t ~key ~client s] marks [client]'s hold on [key] with [s]
    (no-op when it holds none).  A hold is granted with stamp 0 and
    loses its stamp with the hold, so a holder can tell one grant from
    a later one: the cluster stamps each hold with the lease that
    granted it. *)
val stamp : t -> key:key -> client:client -> int -> unit

(** [stamped t ~key ~client s] is [true] when [client] holds [key] and
    the hold carries stamp [s]. *)
val stamped : t -> key:key -> client:client -> int -> bool

(** [queued t ~key] lists waiting requests in FIFO order. *)
val queued : t -> key:key -> (client * mode) list

(** [export t ~fs] removes and returns all lock state for a file set,
    as [(key, holders, queue)] triples, so it can be re-imported at
    the server acquiring the set. *)
val export :
  t -> fs:int -> (key * (client * mode) list * (client * mode) list) list

(** [import t state] installs exported state; keys already present
    raise [Invalid_argument]. *)
val import :
  t -> (key * (client * mode) list * (client * mode) list) list -> unit

(** [active_keys t] counts keys with holders or queued requests. *)
val active_keys : t -> int
