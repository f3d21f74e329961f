type config = { block_size : int; op_overhead : float; bandwidth : float }

type write_verdict =
  | Write_ok
  | Write_crash_before
  | Write_crash_after
  | Write_torn of int

exception Crashed of { op : int; block : int }

type t = {
  cfg : config;
  store : (int, string) Hashtbl.t;
  fenced : (int, unit) Hashtbl.t;
  mutable writes : int;
  mutable rejected : int;
  mutable stalls : float list;  (** the factors of the active stalls *)
  mutable stall : float;  (** the largest of them, 1.0 when none *)
  mutable hook :
    (op:int -> block:int -> cas:bool -> data:string -> write_verdict) option;
}

let default_config =
  { block_size = 4096; op_overhead = 0.0005; bandwidth = 100e6 }

let create ?(config = default_config) () =
  if config.block_size <= 0 then
    invalid_arg "Shared_disk.create: block_size must be positive";
  if config.bandwidth <= 0.0 then
    invalid_arg "Shared_disk.create: bandwidth must be positive";
  { cfg = config; store = Hashtbl.create 1024; fenced = Hashtbl.create 8;
    writes = 0; rejected = 0; stalls = []; stall = 1.0; hook = None }

let set_stall t ~factor =
  if factor < 1.0 then
    invalid_arg "Shared_disk.set_stall: factor must be at least 1";
  t.stalls <- factor :: t.stalls;
  t.stall <- Float.max t.stall factor

let clear_stall t ~factor =
  let rec drop = function
    | [] -> []
    | f :: rest -> if f = factor then rest else f :: drop rest
  in
  t.stalls <- drop t.stalls;
  t.stall <- List.fold_left Float.max 1.0 t.stalls

let stall_factor t = t.stall

let transfer_time t ~bytes =
  if bytes < 0 then invalid_arg "Shared_disk.transfer_time: negative bytes";
  (t.cfg.op_overhead +. (float_of_int bytes /. t.cfg.bandwidth)) *. t.stall

(* Every store mutation funnels through here: [t.writes] is the
   monotone write-point counter (1-based: the op number the hook sees
   is the counter {e after} the increment), and the hook — when armed —
   decides the fate of write point [op].  [Write_crash_before] drops
   the data entirely; [Write_crash_after] lands it whole;
   [Write_torn keep] lands only a prefix (a partial sector write at
   power loss — [keep = 0] leaves an empty block, distinct from an
   absent one).  All three crash verdicts then raise {!Crashed},
   modeling instant whole-cluster power loss: the caller's in-memory
   state is unrecoverable and only the disk image survives. *)
let mutate t ~block ~cas data =
  t.writes <- t.writes + 1;
  match t.hook with
  | None -> Hashtbl.replace t.store block data
  | Some hook -> (
    let op = t.writes in
    match hook ~op ~block ~cas ~data with
    | Write_ok -> Hashtbl.replace t.store block data
    | Write_crash_before -> raise (Crashed { op; block })
    | Write_crash_after ->
      Hashtbl.replace t.store block data;
      raise (Crashed { op; block })
    | Write_torn keep ->
      let keep = Stdlib.max 0 (Stdlib.min keep (String.length data)) in
      Hashtbl.replace t.store block (String.sub data 0 keep);
      raise (Crashed { op; block }))

let write t ~block data =
  mutate t ~block ~cas:false data;
  transfer_time t ~bytes:(String.length data)

let read t ~block =
  let data = Hashtbl.find_opt t.store block in
  let bytes = match data with None -> 0 | Some d -> String.length d in
  (data, transfer_time t ~bytes)

let fence t ~server = Hashtbl.replace t.fenced server ()

let unfence t ~server = Hashtbl.remove t.fenced server

let is_fenced t ~server = Hashtbl.mem t.fenced server

let write_as t ~server ~block data =
  if Hashtbl.mem t.fenced server then begin
    t.rejected <- t.rejected + 1;
    `Fenced
  end
  else `Ok (write t ~block data)

let compare_and_swap t ~block ~expect data =
  let current = Hashtbl.find_opt t.store block in
  if current = expect then begin
    mutate t ~block ~cas:true data;
    true
  end
  else false

let set_write_hook t hook = t.hook <- Some hook

let clear_write_hook t = t.hook <- None

let rejected_writes t = t.rejected
