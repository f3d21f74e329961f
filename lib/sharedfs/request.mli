(** Metadata request types.

    Storage Tank servers see a single class of workload: small metadata
    reads and writes (data I/O goes straight to the SAN).  We still
    distinguish operation kinds because they differ in service demand
    and in whether they dirty the server cache (dirty state determines
    the flush cost when a file set moves). *)

type op =
  | Open_file
  | Close_file
  | Stat
  | Create
  | Remove
  | Rename
  | Readdir
  | Lock_acquire
  | Lock_release
  | Set_attr

type t = {
  op : op;
  file_set : string;  (** unique file-set name the target file lives in *)
  path_hash : int;  (** stands in for the file within the file set *)
  client : int;  (** issuing client machine; identifies lock owners *)
}

(** [make ?client op ~file_set ~path_hash] with [client] defaulting
    to 0. *)
val make : ?client:int -> op -> file_set:string -> path_hash:int -> t

(** [lock_mode ~path_hash] is the lock mode a [Lock_acquire] request
    for the file [path_hash] asks for, derived deterministically from
    the target file (about a quarter of acquisitions are exclusive). *)
val lock_mode : path_hash:int -> Lock_manager.mode

(** [demand_factor op] scales the workload's base service demand: a
    [Stat] is cheap, a [Rename] touches two directory entries, etc. *)
val demand_factor : op -> float

(** [dirties_cache op] holds for operations that write metadata and
    therefore add to the owning server's dirty state. *)
val dirties_cache : op -> bool

val op_name : op -> string

val all_ops : op list

(** [op_index op] is [op]'s position in {!all_ops}. *)
val op_index : op -> int

val pp : Format.formatter -> t -> unit
