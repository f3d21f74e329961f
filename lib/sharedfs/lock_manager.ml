type mode = Shared | Exclusive

type client = int

type key = { fs : int; ino : int }

(* A hold carries the stamp its holder gave it ({!stamp}); 0 until
   then. *)
type hold = { client : client; mode : mode; mutable stamp : int }

type entry = {
  mutable holders : hold list; (* insertion order *)
  queue : (client * mode) Queue.t;
}

type t = { table : (key, entry) Hashtbl.t }

let create ?(size = 256) () = { table = Hashtbl.create size }

let entry_of t key =
  match Hashtbl.find_opt t.table key with
  | Some e -> e
  | None ->
    let e = { holders = []; queue = Queue.create () } in
    Hashtbl.add t.table key e;
    e

let compatible holders mode =
  match (holders, mode) with
  | [], _ -> true
  | _, Exclusive -> false
  | holders, Shared -> List.for_all (fun h -> h.mode = Shared) holders

let rec held client = function
  | [] -> false
  | h :: rest -> h.client = client || held client rest

let rec stamp_hold client s = function
  | [] -> ()
  | h :: rest ->
    if h.client = client then h.stamp <- s else stamp_hold client s rest

let rec has_stamp client s = function
  | [] -> false
  | h :: rest ->
    if h.client = client then h.stamp = s else has_stamp client s rest

let drop_if_empty t key e =
  if e.holders = [] && Queue.is_empty e.queue then Hashtbl.remove t.table key

let acquire t ~key ~client ~mode =
  let e = entry_of t key in
  if held client e.holders then
    invalid_arg "Lock_manager.acquire: client already holds this lock";
  if compatible e.holders mode && Queue.is_empty e.queue then begin
    e.holders <- e.holders @ [ { client; mode; stamp = 0 } ];
    `Granted
  end
  else begin
    Queue.add (client, mode) e.queue;
    `Queued
  end

(* Grant queued requests that have become compatible, preserving FIFO
   order: stop at the first incompatible request. *)
let promote e =
  let granted = ref [] in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt e.queue with
    | Some (client, mode) when compatible e.holders mode ->
      ignore (Queue.pop e.queue);
      e.holders <- e.holders @ [ { client; mode; stamp = 0 } ];
      granted := client :: !granted
    | Some _ | None -> continue := false
  done;
  List.rev !granted

let release t ~key ~client =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e ->
    if held client e.holders then begin
      e.holders <- List.filter (fun h -> h.client <> client) e.holders;
      let granted = promote e in
      drop_if_empty t key e;
      granted
    end
    else begin
      (* Cancel a queued request. *)
      let remaining = Queue.create () in
      Queue.iter
        (fun (c, m) -> if c <> client then Queue.add (c, m) remaining)
        e.queue;
      Queue.clear e.queue;
      Queue.transfer remaining e.queue;
      let granted = promote e in
      drop_if_empty t key e;
      granted
    end

let pairs holders = List.map (fun h -> (h.client, h.mode)) holders

let holders t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> pairs e.holders

let holds t ~key ~client =
  match Hashtbl.find t.table key with
  | exception Not_found -> false
  | e -> held client e.holders

let stamp t ~key ~client s =
  match Hashtbl.find t.table key with
  | exception Not_found -> ()
  | e -> stamp_hold client s e.holders

let stamped t ~key ~client s =
  match Hashtbl.find t.table key with
  | exception Not_found -> false
  | e -> has_stamp client s e.holders

let queued t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> []
  | Some e -> List.of_seq (Queue.to_seq e.queue)

let export t ~fs =
  let exported = ref [] in
  Hashtbl.iter
    (fun key e ->
      if key.fs = fs then
        exported :=
          (key, pairs e.holders, List.of_seq (Queue.to_seq e.queue))
          :: !exported)
    t.table;
  List.iter (fun (key, _, _) -> Hashtbl.remove t.table key) !exported;
  !exported

let import t state =
  List.iter
    (fun (key, holders, queue) ->
      if Hashtbl.mem t.table key then
        invalid_arg "Lock_manager.import: key already present";
      let holders =
        List.map (fun (client, mode) -> { client; mode; stamp = 0 }) holders
      in
      let e = { holders; queue = Queue.create () } in
      List.iter (fun r -> Queue.add r e.queue) queue;
      Hashtbl.add t.table key e)
    state

let active_keys t = Hashtbl.length t.table
