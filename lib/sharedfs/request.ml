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

type t = { op : op; file_set : string; path_hash : int; client : int }

let make ?(client = 0) op ~file_set ~path_hash =
  { op; file_set; path_hash; client }

(* Deterministic mode choice: roughly a quarter of lock acquisitions
   are exclusive (writers), derived from the target file so replays
   agree. *)
let lock_mode ~path_hash =
  if path_hash land 3 = 0 then Lock_manager.Exclusive
  else Lock_manager.Shared

let demand_factor = function
  | Stat -> 0.6
  | Open_file -> 1.0
  | Close_file -> 0.8
  | Create -> 1.4
  | Remove -> 1.2
  | Rename -> 1.6
  | Readdir -> 1.3
  | Lock_acquire -> 0.7
  | Lock_release -> 0.5
  | Set_attr -> 1.1

let dirties_cache = function
  | Create | Remove | Rename | Set_attr | Close_file -> true
  | Open_file | Stat | Readdir | Lock_acquire | Lock_release -> false

let op_name = function
  | Open_file -> "open"
  | Close_file -> "close"
  | Stat -> "stat"
  | Create -> "create"
  | Remove -> "remove"
  | Rename -> "rename"
  | Readdir -> "readdir"
  | Lock_acquire -> "lock"
  | Lock_release -> "unlock"
  | Set_attr -> "setattr"

let all_ops =
  [
    Open_file;
    Close_file;
    Stat;
    Create;
    Remove;
    Rename;
    Readdir;
    Lock_acquire;
    Lock_release;
    Set_attr;
  ]

let pp fmt t =
  Format.fprintf fmt "%s(%s, #%d)" (op_name t.op) t.file_set t.path_hash
