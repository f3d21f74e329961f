let src_log = Logs.Src.create "sharedfs.cluster" ~doc:"cluster events"

module Log = (val Logs.src_log src_log : Logs.LOG)

type move_config = {
  flush_fixed : float;
  init_fixed : float;
  recovery_fixed : float;
  working_set_fraction : float;
}

let default_move_config =
  {
    flush_fixed = 2.0;
    init_fixed = 3.0;
    recovery_fixed = 6.0;
    working_set_fraction = 0.1;
  }

type move_record = {
  started_at : float;
  file_set : string;
  src : Server_id.t option;
  dst : Server_id.t;
  flush_seconds : float;
  init_seconds : float;
}

type ownership =
  | Unassigned
  | Owned of Server_id.t
  | Moving of {
      src : Server_id.t option;
      dst : Server_id.t;
      pending : int Queue.t;  (* request slots, in arrival order *)
      handle : Desim.Sim.handle;
          (* the scheduled completion; cancelled when the move is
             interrupted by a crash of either endpoint *)
      flush_done_at : float;
          (* once the clock passes this, the dirty image is safely on
             the shared disk and a src crash no longer endangers it *)
      span : Obs.Span.id;
          (* the move's span: ends with outcome commit/orphan at
             completion, or interrupted when an endpoint dies *)
    }
  | Orphaned of int Queue.t

type ownership_state =
  | State_owned of Server_id.t
  | State_moving of { src : Server_id.t option; dst : Server_id.t;
                      buffered : int }
  | State_orphaned of { buffered : int }

type conservation = {
  submitted : int;
  completed : int;
  inflight : int;
  buffered : int;
  lock_waiting : int;
}

type link = [ `Cluster | `Disk ]

type fsck_report = {
  records : int;
  torn_found : int;
  torn_repaired : int;
  divergent : string list;
  clean : bool;
}

type lock_stats = {
  granted_immediately : int;
  waited : int;
  cancelled : int;
  leases_expired : int;
}

(* The lock state of one file set.  Lock keys are [{fs; ino}], so a
   single cluster-wide table is already logically partitioned by [fs];
   materializing the partition keeps each table tiny.  [waits] maps a
   queued acquisition to its request slot, whose completion is deferred
   until the grant. *)
type lock_domain = {
  lm : Lock_manager.t;
  waits : (Lock_manager.key * int, int) Hashtbl.t;
}

(* Every request's whole record, from submission to completion: one
   slot per request not yet completed, numbered by the tag its station
   job carries.  A slot is taken at submission and freed at completion,
   through buffering behind a move or an orphaned set, service, a
   redelivery after a crash and a lock wait.  Freed slot numbers go on
   a stack and are reused, so the store only allocates while the number
   of requests in flight reaches a new peak. *)
type slots = {
  mutable slot_fs : int array;  (* interned file-set id *)
  mutable slot_op : Request.op array;
  mutable slot_path : int array;  (* path hash *)
  mutable slot_client : int array;
  mutable slot_demand : float array;  (* base demand *)
  mutable slot_arrival : float array;  (* submission time *)
  mutable slot_extra : float array;
      (* time from arrival to the current delivery: buffering behind a
         move or an orphaned set, service at a server that crashed *)
  mutable slot_span : Obs.Span.id array;  (* the request span *)
  mutable slot_bspan : Obs.Span.id array;
      (* open "buffered" stage while the request waits out a move or an
         orphaned set; ends (and is reset) on delivery *)
  mutable slot_qspan : Obs.Span.id array;  (* open "queue" stage *)
  mutable slot_sspan : Obs.Span.id array;  (* open "service" stage *)
  mutable slot_delivered : bool array;
      (* set at first delivery, so a redelivery after a crash still
         writes its service stage *)
  mutable slot_staged : bool array;
      (* the current delivery writes a service stage *)
  mutable free : int array;  (* stack of free slot numbers *)
  mutable nfree : int;
}

let grow_slots s =
  let cap = Array.length s.slot_fs in
  let ncap = max 16 (2 * cap) in
  let grow a zero =
    let b = Array.make ncap zero in
    Array.blit a 0 b 0 cap;
    b
  in
  s.slot_fs <- grow s.slot_fs 0;
  s.slot_op <- grow s.slot_op Request.Stat;
  s.slot_path <- grow s.slot_path 0;
  s.slot_client <- grow s.slot_client 0;
  s.slot_demand <- grow s.slot_demand 0.0;
  s.slot_arrival <- grow s.slot_arrival 0.0;
  s.slot_extra <- grow s.slot_extra 0.0;
  s.slot_span <- grow s.slot_span Obs.Span.none;
  s.slot_bspan <- grow s.slot_bspan Obs.Span.none;
  s.slot_qspan <- grow s.slot_qspan Obs.Span.none;
  s.slot_sspan <- grow s.slot_sspan Obs.Span.none;
  s.slot_delivered <- grow s.slot_delivered false;
  s.slot_staged <- grow s.slot_staged false;
  (* Every old slot is in use, so the stack's live part is the new
     slots, lowest on top; entries past [nfree] are never read. *)
  s.free <- Array.init ncap (fun i -> ncap - 1 - i);
  s.nfree <- ncap - cap

let[@inline] take_slot s =
  if s.nfree = 0 then grow_slots s;
  s.nfree <- s.nfree - 1;
  s.free.(s.nfree)

let[@inline] release_slot s slot =
  s.free.(s.nfree) <- slot;
  s.nfree <- s.nfree + 1

(* Cluster-wide metric handles, resolved once at creation. *)
type instruments = {
  registry : Obs.Metrics.t;
  latency : Obs.Metrics.Histogram.h;  (* request.latency *)
  submitted : Obs.Metrics.Counter.c;
  completed_ctr : Obs.Metrics.Counter.c;
  moves : Obs.Metrics.Counter.c;
  moves_failed : Obs.Metrics.Counter.c;
  rebuffered : Obs.Metrics.Counter.c;  (* requests.rebuffered *)
}

(* The completion sink: every request's columns and latency. *)
type sink =
  fs:int -> op:Request.op -> path_hash:int -> client:int -> latency:float ->
  unit

type t = {
  sim : Desim.Sim.t;
  clockc : float array;  (* Sim.time_cell: unboxed clock reads *)
  disk : Shared_disk.t;
  ledger : Ledger.t;
  catalog : File_set.Catalog.t;
  interner : File_set.Interner.t;
  move_cfg : move_config;
  cache_cfg : Cache.config option;
  lease_duration : float;
  delegate_lease : float;
  series_interval : float;
  topology : Topology.t;
  partitioned : (Server_id.t, link) Hashtbl.t;
  believers : (Server_id.t, int) Hashtbl.t;
      (* server -> the delegate epoch it believes it holds; a
         partitioned believer keeps its stale entry (it cannot learn of
         a newer election), which is exactly the split-brain scenario
         fencing must contain *)
  mutable zombie_attempts : int;
  mutable zombie_rejected : int;
  mutable on_torn : (seq:int -> unit) option;
  servers : (Server_id.t, Server.t) Hashtbl.t;
  mutable sorted_servers : Server.t list;
      (* cached [servers] result, rebuilt only on membership change *)
  mutable servers_by_int : Server.t option array;
      (* dense [Server_id.to_int]-indexed view of [servers], so delivery
         never hashes an id *)
  mutable sink : sink option;
  ownership : ownership array;  (* indexed by interned file-set id *)
  slots : slots;
  mutable inflight_n : int;  (* requests delivered to a server *)
  lock_domains : lock_domain option array;
      (* indexed by interned file-set id; created on first lock touch *)
  mutable lock_stats : lock_stats;
  mutable move_log : move_record list;
  mutable moves_started : int;
  mutable moves_failed : int;
  mutable rebuffered : int;
  mutable submitted_n : int;
  mutable completed_n : int;
  mutable on_move_start :
    (file_set:string ->
    src:Server_id.t option ->
    dst:Server_id.t ->
    flush_seconds:float ->
    init_seconds:float ->
    unit)
    option;
  obs : Obs.Ctx.t;
  telemetry : Obs.Telemetry.t option;
  instruments : instruments option;
}

let rebuild_sorted_servers t =
  t.sorted_servers <-
    Hashtbl.fold (fun _ s acc -> s :: acc) t.servers []
    |> List.sort (fun a b -> Server_id.compare (Server.id a) (Server.id b));
  let max_id =
    List.fold_left
      (fun m s -> max m (Server_id.to_int (Server.id s)))
      0 t.sorted_servers
  in
  let by_int = Array.make (max_id + 1) None in
  List.iter
    (fun s -> by_int.(Server_id.to_int (Server.id s)) <- Some s)
    t.sorted_servers;
  t.servers_by_int <- by_int

let create sim ~disk ~catalog ?(move_config = default_move_config)
    ?cache_config ?(lease_duration = 30.0) ?(delegate_lease = 300.0)
    ~series_interval ~servers ?topology ?(obs = Obs.Ctx.null) () =
  if lease_duration <= 0.0 then
    invalid_arg "Cluster.create: lease_duration must be positive";
  if delegate_lease <= 0.0 then
    invalid_arg "Cluster.create: delegate_lease must be positive";
  let topology =
    match topology with
    | Some topo ->
      (* Every domain member must be a real server: a typo here would
         otherwise surface only when a domain fault fires. *)
      List.iter
        (fun id ->
          if not (List.mem_assoc id servers) then
            invalid_arg
              (Printf.sprintf
                 "Cluster.create: topology server %d is not in the cluster"
                 (Server_id.to_int id)))
        (Topology.all_servers topo);
      topo
    | None -> Topology.flat ~servers:(List.map fst servers)
  in
  let instruments =
    Option.map
      (fun m ->
        {
          registry = m;
          latency = Obs.Metrics.histogram m "request.latency";
          submitted = Obs.Metrics.counter m "requests.submitted";
          completed_ctr = Obs.Metrics.counter m "requests.completed";
          moves = Obs.Metrics.counter m "moves.started";
          moves_failed = Obs.Metrics.counter m "moves.failed";
          rebuffered = Obs.Metrics.counter m "requests.rebuffered";
        })
      (Obs.Ctx.metrics obs)
  in
  let interner = File_set.Interner.of_names (File_set.Catalog.names catalog) in
  let t =
    {
      sim;
      clockc = Desim.Sim.time_cell sim;
      disk;
      ledger = Ledger.attach disk;
      catalog;
      interner;
      move_cfg = move_config;
      cache_cfg = cache_config;
      lease_duration;
      delegate_lease;
      series_interval;
      topology;
      partitioned = Hashtbl.create 8;
      believers = Hashtbl.create 8;
      zombie_attempts = 0;
      zombie_rejected = 0;
      on_torn = None;
      servers = Hashtbl.create 16;
      sorted_servers = [];
      servers_by_int = [||];
      sink = None;
      ownership =
        Array.make (max 1 (File_set.Interner.size interner)) Unassigned;
      slots =
        {
          slot_fs = [||];
          slot_op = [||];
          slot_path = [||];
          slot_client = [||];
          slot_demand = [||];
          slot_arrival = [||];
          slot_extra = [||];
          slot_span = [||];
          slot_bspan = [||];
          slot_qspan = [||];
          slot_sspan = [||];
          slot_delivered = [||];
          slot_staged = [||];
          free = [||];
          nfree = 0;
        };
      inflight_n = 0;
      lock_domains =
        Array.make (max 1 (File_set.Interner.size interner)) None;
      lock_stats =
        { granted_immediately = 0; waited = 0; cancelled = 0; leases_expired = 0 };
      move_log = [];
      moves_started = 0;
      moves_failed = 0;
      rebuffered = 0;
      submitted_n = 0;
      completed_n = 0;
      on_move_start = None;
      obs;
      telemetry = Obs.Ctx.telemetry obs;
      instruments;
    }
  in
  List.iter
    (fun (id, speed) ->
      if Hashtbl.mem t.servers id then
        invalid_arg "Cluster.create: duplicate server id";
      let server =
        Server.create sim ~id ~speed ?cache_config ~series_interval ~obs ()
      in
      Hashtbl.add t.servers id server)
    servers;
  rebuild_sorted_servers t;
  (* Torn appends are observable even before anyone installs a hook:
     they count against [ledger.torn_writes] and show up in traces. *)
  Ledger.set_on_torn t.ledger (fun ~seq ->
      (match t.instruments with
      | None -> ()
      | Some i ->
        Obs.Metrics.Counter.incr
          (Obs.Metrics.counter i.registry "ledger.torn_writes"));
      match t.on_torn with None -> () | Some f -> f ~seq);
  t

let sim t = t.sim

let topology t = t.topology

let obs t = t.obs

let catalog t = t.catalog

let fs_id t name = File_set.Interner.id t.interner name

let fs_name t fs = File_set.Interner.name t.interner fs

let disk t = t.disk

let server t id =
  match Hashtbl.find_opt t.servers id with
  | Some s -> s
  | None ->
    invalid_arg
      (Format.asprintf "Cluster.server: unknown %a" Server_id.pp id)

let servers t = t.sorted_servers

let alive_ids t =
  List.filter_map
    (fun s -> if Server.failed s then None else Some (Server.id s))
    t.sorted_servers

let owner t name =
  match File_set.Interner.find t.interner name with
  | Some fs -> (
    match t.ownership.(fs) with
    | Owned id -> Some id
    | Moving _ | Orphaned _ | Unassigned -> None)
  | None -> None

let owned_by t id =
  let acc = ref [] in
  Array.iteri
    (fun fs o ->
      match o with
      | Owned owner when Server_id.equal owner id ->
        acc := fs_name t fs :: !acc
      | Owned _ | Moving _ | Orphaned _ | Unassigned -> ())
    t.ownership;
  List.sort String.compare !acc

(* Rare-path counter bump: registry lookup is idempotent registration,
   fine outside the request hot path. *)
let bump ?(n = 1) t name =
  match t.instruments with
  | None -> ()
  | Some i -> Obs.Metrics.Counter.add (Obs.Metrics.counter i.registry name) n

let emit t e = if Obs.Ctx.tracing t.obs then Obs.Ctx.emit t.obs e

(* Trusted in-process append: the coordinated paths (assignment, move
   orchestration, membership) write the ledger directly and are never
   fenced — fencing applies to identified writers ([Ledger.append
   ?writer], the zombie probe path). *)
let journal t phase op =
  match Ledger.append t.ledger phase op with
  | `Appended (_ : int) -> ()
  | `Fenced -> assert false

let assign_initial t pairs =
  List.iter
    (fun (name, id) ->
      let (_ : File_set.t) = File_set.Catalog.get t.catalog name in
      let fs = fs_id t name in
      (match t.ownership.(fs) with
      | Unassigned -> ()
      | Owned _ | Moving _ | Orphaned _ ->
        invalid_arg ("Cluster.assign_initial: " ^ name ^ " assigned twice"));
      let server = server t id in
      Server.gain_file_set server ~fs ~cold:false;
      t.ownership.(fs) <- Owned id;
      journal t Ledger.Commit
        (Ledger.Assign { file_set = name; owner = Server_id.to_int id }))
    pairs

(* Whole-cluster restart: install a recovered placement into a fresh
   cluster attached to the surviving disk.  [owned] placements roll
   forward to their committed owners — with cold caches, since every
   server restarted — and must not be journaled again (the ledger
   already folds to them).  [orphaned] sets, plus every catalog set
   neither list mentions (the crash landed before their initial
   assignment reached the ledger), are parked as orphans for the
   policy to re-place; each orphan decision IS journaled as
   [Commit Orphan], because for a rolled-back pending intent the
   ledger still folds to [Pending] — the rollback is a recovery
   decision the WAL must record before {!fsck} can agree with
   memory. *)
let restore_recovered t ~owned ~orphaned =
  if Array.exists (fun o -> o <> Unassigned) t.ownership then
    invalid_arg "Cluster.restore_recovered: cluster already has assignments";
  List.iter
    (fun (name, raw) ->
      let fs = fs_id t name in
      (match t.ownership.(fs) with
      | Unassigned -> ()
      | Owned _ | Moving _ | Orphaned _ ->
        invalid_arg ("Cluster.restore_recovered: " ^ name ^ " restored twice"));
      let id = Server_id.of_int raw in
      let server = server t id in
      Server.gain_file_set server ~fs ~cold:true;
      t.ownership.(fs) <- Owned id)
    owned;
  (* Validate the explicit orphans name real sets; the sweep below
     picks them up together with the never-journaled ones. *)
  List.iter (fun name -> ignore (fs_id t name : int)) orphaned;
  let orphans = ref [] in
  Array.iteri
    (fun fs o ->
      match o with
      | Unassigned -> orphans := fs_name t fs :: !orphans
      | Owned _ | Moving _ | Orphaned _ -> ())
    t.ownership;
  let orphans = List.sort String.compare !orphans in
  List.iter
    (fun name ->
      let fs = fs_id t name in
      t.ownership.(fs) <- Orphaned (Queue.create ());
      journal t Ledger.Commit (Ledger.Orphan { file_set = name }))
    orphans;
  (List.length owned, List.length orphans)

let lock_key sl slot =
  { Lock_manager.fs = sl.slot_fs.(slot); ino = abs sl.slot_path.(slot) }

(* The lock domain of one file set, created on first lock touch (a
   workload without lock operations never allocates any). *)
let domain_of t fs =
  let ds = t.lock_domains in
  match ds.(fs) with
  | Some d -> d
  | None ->
    let d =
      { lm = Lock_manager.create ~size:8 (); waits = Hashtbl.create 8 }
    in
    ds.(fs) <- Some d;
    d

(* The request in [slot] is done: its slot is freed and the sink sees
   its columns.  Every exit path — direct completion, deferred lock
   grant, delivery after a move or a crash — ends here exactly once, so
   the conservation counters see each request once. *)
let complete t slot ~latency =
  let sl = t.slots in
  let fs = sl.slot_fs.(slot) in
  let op = sl.slot_op.(slot) in
  let path_hash = sl.slot_path.(slot) in
  let client = sl.slot_client.(slot) in
  release_slot sl slot;
  t.completed_n <- t.completed_n + 1;
  match t.sink with
  | Some k -> k ~fs ~op ~path_hash ~client ~latency
  | None -> failwith "Cluster: a request completed without a sink"

(* Complete the deferred requests of clients whose queued acquisitions
   were just granted, and start their leases. *)
let rec grant_waiters t d key granted =
  List.iter
    (fun client ->
      match Hashtbl.find_opt d.waits (key, client) with
      | None -> ()
      | Some slot ->
        Hashtbl.remove d.waits (key, client);
        start_lease t d key client;
        complete t slot
          ~latency:(t.clockc.(0) -. t.slots.slot_arrival.(slot)))
    granted

(* Storage Tank's client leases: a hold not released within the lease
   is reclaimed, so no acquisition can block forever behind a client
   that never releases (or has crashed). *)
and start_lease t d key client =
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule t.sim ~delay:t.lease_duration (fun () ->
        if List.mem_assoc client (Lock_manager.holders d.lm ~key) then begin
          t.lock_stats <-
            { t.lock_stats with leases_expired = t.lock_stats.leases_expired + 1 };
          let granted = Lock_manager.release d.lm ~key ~client in
          grant_waiters t d key granted
        end)
  in
  ()

(* The server has finished processing the request in [slot]; apply the
   lock semantics before reporting completion to the client. *)
let complete_request t slot ~latency =
  let sl = t.slots in
  match sl.slot_op.(slot) with
  | Request.Lock_acquire ->
    let d = domain_of t sl.slot_fs.(slot) in
    let key = lock_key sl slot in
    let client = sl.slot_client.(slot) in
    if List.mem_assoc client (Lock_manager.holders d.lm ~key) then
      (* Re-acquisition of a held lock: grant immediately. *)
      complete t slot ~latency
    else begin
      match
        Lock_manager.acquire d.lm ~key ~client
          ~mode:(Request.lock_mode ~path_hash:sl.slot_path.(slot))
      with
      | `Granted ->
        t.lock_stats <-
          {
            t.lock_stats with
            granted_immediately = t.lock_stats.granted_immediately + 1;
          };
        start_lease t d key client;
        complete t slot ~latency
      | `Queued ->
        t.lock_stats <- { t.lock_stats with waited = t.lock_stats.waited + 1 };
        Hashtbl.add d.waits (key, client) slot
    end
  | Request.Lock_release ->
    let d = domain_of t sl.slot_fs.(slot) in
    let key = lock_key sl slot in
    let client = sl.slot_client.(slot) in
    let was_waiting = Hashtbl.find_opt d.waits (key, client) in
    let granted = Lock_manager.release d.lm ~key ~client in
    (match was_waiting with
    | Some waiter ->
      (* The release cancelled the client's own queued acquisition:
         complete it now so no caller is left hanging. *)
      Hashtbl.remove d.waits (key, client);
      t.lock_stats <-
        { t.lock_stats with cancelled = t.lock_stats.cancelled + 1 };
      complete t waiter
        ~latency:(t.clockc.(0) -. sl.slot_arrival.(waiter))
    | None -> ());
    grant_waiters t d key granted;
    complete t slot ~latency
  | Request.Open_file | Request.Close_file | Request.Stat | Request.Create
  | Request.Remove | Request.Rename | Request.Readdir | Request.Set_attr ->
    complete t slot ~latency

(* A request delivered to a busy [server] opens its queue stage, which
   [start_service] closes; otherwise (or untraced) it has none. *)
let[@inline] open_queue t server ~sid ~span ~fs =
  if Obs.Ctx.tracing t.obs && Server.in_service server then
    Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~parent:span
      ~name:"queue" ~cat:"request" ~server:sid ~file_set:(fs_name t fs) ()
  else Obs.Span.none

(* A delivered request begins service: telemetry sees the service time,
   and a request with stages closes its queue stage (a no-op when it
   has none) and opens its service stage, returned.  Without stages it
   returns {!Obs.Span.none}. *)
let start_service t ~sid ~span ~qspan ~fs ~staged ~service =
  let started = Desim.Sim.now t.sim in
  (match t.telemetry with
  | Some tl ->
    Obs.Telemetry.observe_service tl ~time:started ~server:sid ~service
  | None -> ());
  if staged then begin
    Obs.Span.end_ t.obs ~time:started ~id:qspan ~name:"queue" ~cat:"request"
      ~server:sid ();
    Obs.Span.begin_ t.obs ~time:started ~parent:span ~name:"service"
      ~cat:"request" ~server:sid ~file_set:(fs_name t fs) ()
  end
  else Obs.Span.none

(* A delivered request's server has finished it: the request counters
   and histogram, telemetry, then its service stage and request span
   close. *)
let[@inline] finish_service t server ~sid ~span ~sspan ~latency =
  (match t.instruments with
  | None -> ()
  | Some i ->
    Obs.Metrics.Counter.incr i.completed_ctr;
    Obs.Metrics.Histogram.observe i.latency latency);
  (match t.telemetry with
  | Some tl ->
    Obs.Telemetry.observe_complete tl ~time:(Desim.Sim.now t.sim) ~server:sid
      ~queue_depth:(Server.queue_length server) ~latency
  | None -> ());
  if Obs.Ctx.tracing t.obs then begin
    let finished = Desim.Sim.now t.sim in
    Obs.Span.end_ t.obs ~time:finished ~id:sspan ~name:"service"
      ~cat:"request" ~server:sid ();
    Obs.Span.end_ t.obs ~time:finished ~id:span ~name:"request"
      ~cat:"request" ~server:sid ()
  end

(* [server] has finished the request in [slot]; [latency] includes the
   time before the delivery.  The server records it, the request's
   stages close, and the lock service and the completion sink take
   over. *)
let finish t server ~sid slot ~latency =
  Server.record server ~latency;
  t.inflight_n <- t.inflight_n - 1;
  let sl = t.slots in
  finish_service t server ~sid ~span:sl.slot_span.(slot)
    ~sspan:sl.slot_sspan.(slot) ~latency;
  complete_request t slot ~latency

(* The servers' station hooks: the start hook (only when some observer
   wants it) opens the service stage of a delivery that writes one, and
   the sink adds the time before the delivery to the station's latency.
   Most requests were delivered on arrival, and adding 0.0 to a station
   latency (never -0.0) is the identity, so those pass on the float the
   station boxed instead of boxing a new one. *)
let install_hooks t server =
  let sid = Server_id.to_int (Server.id server) in
  let sl = t.slots in
  if Obs.Ctx.tracing t.obs || Option.is_some t.telemetry then
    Server.set_start_hook server (fun ~tag ~service ->
        sl.slot_sspan.(tag) <-
          start_service t ~sid ~span:sl.slot_span.(tag)
            ~qspan:sl.slot_qspan.(tag) ~fs:sl.slot_fs.(tag)
            ~staged:sl.slot_staged.(tag) ~service);
  Server.set_sink server (fun ~tag ~latency ->
      let extra = sl.slot_extra.(tag) in
      if extra = 0.0 then finish t server ~sid tag ~latency
      else finish t server ~sid tag ~latency:(latency +. extra))

let set_sink t k =
  t.sink <- Some k;
  List.iter (install_hooks t) t.sorted_servers

let clear_sink t =
  t.sink <- None;
  List.iter Server.clear_hooks t.sorted_servers

(* Hand the request in [slot] to [id], which owns its file set.  The
   buffered stage (if the request waited out a move) closes, and the
   stages that follow are decided here.  A queue stage is opened only
   when the server is busy, so the request will really wait; the start
   hook then closes it and opens service with the station's computed
   service time, splitting queueing delay from service exactly.  An idle
   server starts service at delivery.  A request delivered once, at
   submission, to an idle server writes no stage at all: its service
   would begin and end with its request span, so forensics derives it
   from that span instead.  A buffered, queued or redelivered request
   writes its service stage.  [base_demand] is the slot's demand, passed
   in so that a delivery at submission boxes no float. *)
let deliver t id slot ~base_demand =
  let server =
    match t.servers_by_int.(Server_id.to_int id) with
    | Some s -> s
    | None -> assert false (* an owner is always a known server *)
  in
  let sl = t.slots in
  let sid = Server_id.to_int id in
  let fs = sl.slot_fs.(slot) in
  let bspan = sl.slot_bspan.(slot) in
  let staged = bspan <> Obs.Span.none || sl.slot_delivered.(slot) in
  sl.slot_delivered.(slot) <- true;
  if bspan <> Obs.Span.none then begin
    Obs.Span.end_ t.obs ~time:t.clockc.(0) ~id:bspan ~name:"buffered"
      ~cat:"request" ~server:sid ();
    sl.slot_bspan.(slot) <- Obs.Span.none
  end;
  let qspan = open_queue t server ~sid ~span:sl.slot_span.(slot) ~fs in
  sl.slot_qspan.(slot) <- qspan;
  sl.slot_sspan.(slot) <- Obs.Span.none;
  sl.slot_staged.(slot) <-
    qspan <> Obs.Span.none || (Obs.Ctx.tracing t.obs && staged);
  sl.slot_extra.(slot) <- t.clockc.(0) -. sl.slot_arrival.(slot);
  t.inflight_n <- t.inflight_n + 1;
  Server.submit server ~fs ~op:sl.slot_op.(slot) ~base_demand ~tag:slot

(* Deliver a request that waited: buffered behind a move or an orphaned
   set, or interrupted by a crash. *)
let redeliver t id slot =
  deliver t id slot ~base_demand:t.slots.slot_demand.(slot)

(* A request span's [Op] attribute as a preallocated one-element list
   per operation, so a traced submission allocates only the [Client]
   cell in front of it. *)
let op_attrs =
  List.map
    (fun op -> (op, [ Obs.Event.Op (Request.op_name op) ]))
    Request.all_ops

let op_attr op = List.assq op op_attrs

(* A request for an assigned set arrives: telemetry counts it, its
   request span opens, the submission counters move, and it takes a
   slot, returned.  The request span is the request's whole record in a
   trace: its begin carries the file set, client and operation, its end
   the server. *)
let arrive t ~fs ~op ~base_demand ~path_hash ~client =
  if Option.is_none t.sink then failwith "Cluster.submit: set_sink first";
  (match t.telemetry with
  | Some tl ->
    Obs.Telemetry.observe_submit tl ~time:(Desim.Sim.now t.sim)
      ~file_set:(fs_name t fs)
  | None -> ());
  let span =
    if Obs.Ctx.tracing t.obs then
      Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"request"
        ~cat:"request" ~file_set:(fs_name t fs)
        ~attrs:(Obs.Event.Client client :: op_attr op)
        ()
    else Obs.Span.none
  in
  t.submitted_n <- t.submitted_n + 1;
  (match t.instruments with
  | None -> ()
  | Some i -> Obs.Metrics.Counter.incr i.submitted);
  let sl = t.slots in
  let slot = take_slot sl in
  sl.slot_fs.(slot) <- fs;
  sl.slot_op.(slot) <- op;
  sl.slot_path.(slot) <- path_hash;
  sl.slot_client.(slot) <- client;
  sl.slot_demand.(slot) <- base_demand;
  sl.slot_arrival.(slot) <- t.clockc.(0);
  sl.slot_span.(slot) <- span;
  sl.slot_delivered.(slot) <- false;
  slot

let submit t ~fs ~op ~base_demand ~path_hash ~client =
  match t.ownership.(fs) with
  | Owned id ->
    let slot = arrive t ~fs ~op ~base_demand ~path_hash ~client in
    deliver t id slot ~base_demand
  | Moving { pending; _ } | Orphaned pending ->
    let slot = arrive t ~fs ~op ~base_demand ~path_hash ~client in
    (* A request held back by a move or an orphaned set gets an explicit
       "buffered" stage, so forensics can attribute that part of its
       latency to the move rather than to queueing. *)
    t.slots.slot_bspan.(slot) <-
      Obs.Span.begin_ t.obs ~time:t.clockc.(0)
        ~parent:t.slots.slot_span.(slot) ~name:"buffered" ~cat:"request"
        ~file_set:(fs_name t fs) ();
    Queue.add slot pending
  | Unassigned ->
    failwith ("Cluster.submit: file set never assigned: " ^ fs_name t fs)

let init_seconds t fs =
  let entry = File_set.Catalog.nth t.catalog fs in
  let bytes =
    int_of_float
      (t.move_cfg.working_set_fraction
      *. float_of_int entry.File_set.metadata_bytes)
  in
  t.move_cfg.init_fixed +. Shared_disk.transfer_time t.disk ~bytes

let complete_move t ~fs ~src ~dst pending =
  let dst_server = server t dst in
  let mspan =
    match t.ownership.(fs) with Moving { span; _ } -> span | _ -> Obs.Span.none
  in
  let end_move ?attrs outcome =
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:mspan ~name:"move"
      ~cat:"move" ~server:(Server_id.to_int dst) ~outcome ?attrs ()
  in
  if Server.failed dst_server then begin
    (* Destination died while the set was in transit: the set is
       orphaned again and the failure handler's caller re-places it. *)
    end_move "orphan";
    t.ownership.(fs) <- Orphaned pending;
    journal t Ledger.Commit (Ledger.Orphan { file_set = fs_name t fs })
  end
  else begin
    end_move "commit"
      ~attrs:
        (if mspan = Obs.Span.none then []
         else [ Obs.Event.Replayed (Queue.length pending) ]);
    Server.gain_file_set dst_server ~fs ~cold:true;
    t.ownership.(fs) <- Owned dst;
    journal t Ledger.Commit
      (Ledger.Move
         {
           file_set = fs_name t fs;
           src = Option.map Server_id.to_int src;
           dst = Server_id.to_int dst;
         });
    Queue.iter (fun slot -> redeliver t dst slot) pending;
    Queue.clear pending
  end

(* Counts and logs a move and opens its span on the destination's
   track, with the move's source and phase times. *)
let record_move t ~file_set ~src ~dst ~flush_seconds ~init_seconds =
  t.moves_started <- t.moves_started + 1;
  (match t.instruments with
  | None -> ()
  | Some i ->
    Obs.Metrics.Counter.incr i.moves;
    (* Moves are rare, so the registry lookup (idempotent
       registration) is fine here. *)
    Obs.Metrics.Counter.incr
      (Obs.Metrics.counter i.registry
         (Printf.sprintf "server.%d.moves_in" (Server_id.to_int dst))));
  t.move_log <-
    {
      started_at = Desim.Sim.now t.sim;
      file_set;
      src;
      dst;
      flush_seconds;
      init_seconds;
    }
    :: t.move_log;
  let attrs =
    if not (Obs.Ctx.tracing t.obs) then []
    else
      let phases =
        Obs.Event.[ Flush_seconds flush_seconds; Init_seconds init_seconds ]
      in
      match src with
      | Some s -> Obs.Event.Src (Server_id.to_int s) :: phases
      | None -> phases
  in
  Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"move" ~cat:"move"
    ~server:(Server_id.to_int dst) ~file_set ~attrs ()

let move t ~file_set ~dst =
  let (_ : File_set.t) = File_set.Catalog.get t.catalog file_set in
  let fs = fs_id t file_set in
  let (_ : Server.t) = server t dst in
  match t.ownership.(fs) with
  | Unassigned ->
    failwith ("Cluster.move: file set never assigned: " ^ file_set)
  | Moving _ ->
    Log.debug (fun m -> m "move of %s already in flight; ignoring" file_set)
  | Owned src when Server_id.equal src dst -> ()
  | Owned src ->
    (* Write-ahead: the intent hits the shared disk before the flush
       starts, so a crash mid-move leaves an intent recovery rolls
       back. *)
    journal t Ledger.Intent
      (Ledger.Move
         {
           file_set;
           src = Some (Server_id.to_int src);
           dst = Server_id.to_int dst;
         });
    let src_server = server t src in
    let dirty = Server.shed_file_set src_server ~fs in
    (* The flush writes the dirty metadata image through the shared
       disk; a representative block write keeps the disk counters
       honest while the time accounts for the full dirty footprint. *)
    let (_ : float) =
      Shared_disk.write t.disk ~block:(fs * 1_000_000)
        (String.make (min (max dirty 1) 4096) 'm')
    in
    let flush_seconds =
      t.move_cfg.flush_fixed +. Shared_disk.transfer_time t.disk ~bytes:dirty
    in
    let init_seconds = init_seconds t fs in
    let pending = Queue.create () in
    let handle =
      Desim.Sim.schedule t.sim ~delay:(flush_seconds +. init_seconds)
        (fun () -> complete_move t ~fs ~src:(Some src) ~dst pending)
    in
    let span =
      record_move t ~file_set ~src:(Some src) ~dst ~flush_seconds
        ~init_seconds
    in
    t.ownership.(fs) <-
      Moving
        {
          src = Some src;
          dst;
          pending;
          handle;
          flush_done_at = Desim.Sim.now t.sim +. flush_seconds;
          span;
        };
    Option.iter
      (fun f ->
        f ~file_set ~src:(Some src) ~dst ~flush_seconds ~init_seconds)
      t.on_move_start
  | Orphaned pending ->
    journal t Ledger.Intent
      (Ledger.Move { file_set; src = None; dst = Server_id.to_int dst });
    let init_seconds =
      t.move_cfg.recovery_fixed +. init_seconds t fs
    in
    let handle =
      Desim.Sim.schedule t.sim ~delay:init_seconds (fun () ->
          complete_move t ~fs ~src:None ~dst pending)
    in
    (* No flush phase: the image is already on the shared disk, so
       only a dst crash can interrupt the adoption. *)
    let span =
      record_move t ~file_set ~src:None ~dst ~flush_seconds:0.0 ~init_seconds
    in
    t.ownership.(fs) <-
      Moving
        {
          src = None;
          dst;
          pending;
          handle;
          flush_done_at = Desim.Sim.now t.sim;
          span;
        };
    Option.iter
      (fun f ->
        f ~file_set ~src:None ~dst ~flush_seconds:0.0 ~init_seconds)
      t.on_move_start

(* The common half of crash and partition handling: the server stops
   serving, its sets are orphaned (journaled), its in-flight moves die,
   and its interrupted requests are re-buffered.  Callers decide what
   the event {e means} — a crash clears the server's delegate belief, a
   partition keeps it (and fences the disk). *)
let take_down t id =
  let failed_server = server t id in
  begin
    let now = Desim.Sim.now t.sim in
    (* The server's jobs are tagged with their request slots. *)
    let interrupted = Server.fail failed_server in
    t.inflight_n <- t.inflight_n - List.length interrupted;
    let arrival = t.slots.slot_arrival in
    let interrupted =
      List.sort
        (fun a b -> Float.compare arrival.(a) arrival.(b))
        interrupted
    in
    (* Orphan every file set the dead server owned, then re-buffer its
       interrupted requests behind the right orphan queues. *)
    let orphaned = ref [] in
    Array.iteri
      (fun fs o ->
        match o with
        | Owned owner when Server_id.equal owner id ->
          t.ownership.(fs) <- Orphaned (Queue.create ());
          journal t Ledger.Commit (Ledger.Orphan { file_set = fs_name t fs });
          orphaned := fs_name t fs :: !orphaned
        | Owned _ | Moving _ | Orphaned _ | Unassigned -> ())
      t.ownership;
    let orphaned = List.sort String.compare !orphaned in
    (* A crash also kills every move the server was an endpoint of: a
       dead destination can never initialize the set, and a dead
       source mid-flush leaves an incomplete image on the shared disk.
       Cancel the completion, orphan the set (keeping its buffered
       requests — recovery replays them), and report it for
       re-placement alongside the owned sets. *)
    let dead_moves = ref [] in
    Array.iteri
      (fun fs o ->
        match o with
        | Moving { src; dst; pending; handle; flush_done_at; span } ->
          let src_died =
            match src with
            | Some s -> Server_id.equal s id && now < flush_done_at
            | None -> false
          in
          if src_died then
            dead_moves :=
              (fs_name t fs, fs, pending, handle, span, "src") :: !dead_moves
          else if Server_id.equal dst id then
            dead_moves :=
              (fs_name t fs, fs, pending, handle, span, "dst") :: !dead_moves
        | Owned _ | Orphaned _ | Unassigned -> ())
      t.ownership;
    let dead_moves =
      List.sort
        (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> String.compare a b)
        !dead_moves
    in
    List.iter
      (fun (name, fs, pending, handle, span, role) ->
        Desim.Sim.cancel t.sim handle;
        Obs.Span.end_ t.obs ~time:now ~id:span ~name:"move" ~cat:"move"
          ~server:(Server_id.to_int id) ~outcome:"interrupted"
          ~attrs:(if span = Obs.Span.none then [] else [ Obs.Event.Role role ])
          ();
        t.ownership.(fs) <- Orphaned pending;
        journal t Ledger.Commit (Ledger.Orphan { file_set = name });
        t.moves_failed <- t.moves_failed + 1;
        (match t.instruments with
        | None -> ()
        | Some i -> Obs.Metrics.Counter.incr i.moves_failed))
      dead_moves;
    List.iter
      (fun slot ->
        t.rebuffered <- t.rebuffered + 1;
        (match t.instruments with
        | None -> ()
        | Some i -> Obs.Metrics.Counter.incr i.rebuffered);
        match t.ownership.(t.slots.slot_fs.(slot)) with
        | Orphaned q -> Queue.add slot q
        | Moving { pending; _ } -> Queue.add slot pending
        | Owned owner -> redeliver t owner slot
        | Unassigned -> assert false (* it was delivered *))
      interrupted;
    List.sort_uniq String.compare
      (orphaned @ List.map (fun (name, _, _, _, _, _) -> name) dead_moves)
  end

let fail_server t id =
  let failed_server = server t id in
  if Server.failed failed_server then
    (* Contract: failing a dead server is an explicit no-op — chaos
       schedules can double-fire without corrupting ownership. *)
    []
  else begin
    (* A crashed process forgets everything, including any belief that
       it held the delegate lease. *)
    Hashtbl.remove t.believers id;
    journal t Ledger.Commit
      (Ledger.Member { server = Server_id.to_int id; change = "leave" });
    take_down t id
  end

let link_name = function `Cluster -> "cluster" | `Disk -> "disk"

let partition_server t id ~link =
  let s = server t id in
  if Server.failed s then []
  else begin
    let now = Desim.Sim.now t.sim in
    let sid = Server_id.to_int id in
    Hashtbl.replace t.partitioned id (link : link);
    (* Fence first: from this instant the isolated server cannot touch
       the shared image, whatever it still believes about its leases
       (note [t.believers] is deliberately {e not} cleared — the
       process is alive and convinced, just contained). *)
    Shared_disk.fence t.disk ~server:sid;
    emit t (Obs.Event.Fence { time = now; server = sid; action = "fenced" });
    journal t Ledger.Commit
      (Ledger.Member
         { server = sid; change = "fence-" ^ link_name link });
    take_down t id
  end

let is_partitioned t id = Hashtbl.mem t.partitioned id

let partitioned_servers t =
  Hashtbl.fold (fun id link acc -> (id, link) :: acc) t.partitioned []
  |> List.sort (fun (a, _) (b, _) -> Server_id.compare a b)

let recover_server t id =
  let s = server t id in
  (* Contract: recovering an alive server is an explicit no-op. *)
  if Server.failed s then begin
    let sid = Server_id.to_int id in
    (match Hashtbl.find_opt t.partitioned id with
    | Some (_ : link) ->
      Hashtbl.remove t.partitioned id;
      (* Rejoining means submitting to the current epoch: the stale
         delegate belief is dropped before the fence lifts. *)
      Hashtbl.remove t.believers id;
      Shared_disk.unfence t.disk ~server:sid;
      emit t
        (Obs.Event.Fence
           { time = Desim.Sim.now t.sim; server = sid; action = "unfenced" });
      journal t Ledger.Commit (Ledger.Member { server = sid; change = "heal" })
    | None -> ());
    Server.recover s;
    journal t Ledger.Commit (Ledger.Member { server = sid; change = "join" })
  end

let heal_partition t id =
  if Hashtbl.mem t.partitioned id then begin
    recover_server t id;
    true
  end
  else false

(* --- zombie writes ---

   A partitioned server that still believes it owns metadata will keep
   trying to write.  The probe targets a reserved control block so a
   bug that lets it through corrupts nothing real — but the invariant
   checker treats any landed zombie write as a violation. *)

let zombie_probe_block = -2

let zombie_write t id =
  t.zombie_attempts <- t.zombie_attempts + 1;
  let sid = Server_id.to_int id in
  match
    Shared_disk.write_as t.disk ~server:sid ~block:zombie_probe_block "zombie"
  with
  | `Fenced ->
    t.zombie_rejected <- t.zombie_rejected + 1;
    bump t "fence.write_rejected";
    emit t
      (Obs.Event.Fence
         {
           time = Desim.Sim.now t.sim;
           server = sid;
           action = "write_rejected";
         });
    `Rejected
  | `Ok (_ : float) -> `Landed

let zombie_stats t = (t.zombie_attempts, t.zombie_rejected)

(* --- the delegate lease ---

   One epoch-numbered lease record on the shared disk, moved only by
   compare-and-swap of its raw bytes.  Election is therefore
   linearized by the disk itself: two concurrent claimants race one
   CAS, and exactly one wins the epoch. *)

let encode_lease ~epoch ~holder ~expires =
  (* %h round-trips the float exactly, keeping CAS expectations
     byte-stable. *)
  Printf.sprintf "%d|%d|%h" epoch holder expires

let decode_lease s =
  match String.split_on_char '|' s with
  | [ e; h; x ] -> (
    match
      (int_of_string_opt e, int_of_string_opt h, float_of_string_opt x)
    with
    | Some e, Some h, Some x -> Some (e, h, x)
    | _ -> None)
  | _ -> None

let read_lease t = fst (Shared_disk.read t.disk ~block:Ledger.lease_block)

let delegate_epoch t =
  match Option.bind (read_lease t) decode_lease with
  | Some (epoch, _, _) -> epoch
  | None -> 0

let delegate_believers t =
  Hashtbl.fold (fun id epoch acc -> (id, epoch) :: acc) t.believers []
  |> List.sort (fun (a, _) (b, _) -> Server_id.compare a b)

(* Claim the lease under a fresh epoch for [candidate].  [raw] is the
   CAS expectation — the lease bytes the caller just read — so a lost
   race leaves the winner's lease untouched. *)
let claim_lease t ~raw ~candidate =
  let now = Desim.Sim.now t.sim in
  let cand = Server_id.to_int candidate in
  let disk_epoch =
    match Option.bind raw decode_lease with Some (e, _, _) -> e | None -> 0
  in
  let epoch = 1 + max disk_epoch (Ledger.current_epoch t.ledger) in
  let data = encode_lease ~epoch ~holder:cand ~expires:(now +. t.delegate_lease) in
  if
    Shared_disk.compare_and_swap t.disk ~block:Ledger.lease_block ~expect:raw
      data
  then begin
    (* Connected believers learn of the new epoch and stand down;
       partitioned ones cannot — they stay stale, and stay fenced. *)
    let stale =
      Hashtbl.fold
        (fun id e acc ->
          if e < epoch && not (Hashtbl.mem t.partitioned id) then id :: acc
          else acc)
        t.believers []
    in
    List.iter (Hashtbl.remove t.believers) stale;
    Hashtbl.replace t.believers candidate epoch;
    Ledger.set_epoch t.ledger epoch;
    journal t Ledger.Commit (Ledger.Epoch { holder = cand });
    bump t "fence.epoch_bump";
    emit t
      (Obs.Event.Fence { time = now; server = cand; action = "epoch_bump" });
    epoch
  end
  else delegate_epoch t

let ensure_delegate t =
  match alive_ids t with
  | [] -> delegate_epoch t
  | candidate :: _ -> (
    let now = Desim.Sim.now t.sim in
    let raw = read_lease t in
    match Option.bind raw decode_lease with
    | Some (epoch, holder, expires)
      when holder = Server_id.to_int candidate && expires > now ->
      (* The rightful holder renews in place; the epoch is stable, so
         no believer changes and nothing is journaled. *)
      let data =
        encode_lease ~epoch ~holder ~expires:(now +. t.delegate_lease)
      in
      let (_ : bool) =
        Shared_disk.compare_and_swap t.disk ~block:Ledger.lease_block
          ~expect:raw data
      in
      Hashtbl.replace t.believers candidate epoch;
      epoch
    | Some _ | None -> claim_lease t ~raw ~candidate)

let reelect_delegate t =
  match alive_ids t with
  | [] -> delegate_epoch t
  | candidate :: _ -> claim_lease t ~raw:(read_lease t) ~candidate

let add_server t id ~speed =
  if Hashtbl.mem t.servers id then
    invalid_arg "Cluster.add_server: duplicate server id";
  let server =
    Server.create t.sim ~id ~speed ?cache_config:t.cache_cfg
      ~series_interval:t.series_interval ~obs:t.obs ()
  in
  Hashtbl.add t.servers id server;
  rebuild_sorted_servers t;
  if Option.is_some t.sink then install_hooks t server

let ledger t = t.ledger

let set_on_torn t f = t.on_torn <- Some f

let lock_active_keys t =
  Array.fold_left
    (fun acc d ->
      match d with None -> acc | Some d -> acc + Lock_manager.active_keys d.lm)
    0 t.lock_domains

let lock_domain_of t ~fs = (domain_of t fs).lm

let lock_stats t = t.lock_stats

let moves t = List.rev t.move_log

let moves_started t = t.moves_started

let moves_failed t = t.moves_failed

let requests_rebuffered t = t.rebuffered

let set_on_move_start t f = t.on_move_start <- Some f

let mem_server t id = Hashtbl.mem t.servers id

let pending_requests t =
  Array.fold_left
    (fun acc o ->
      match o with
      | Owned _ | Unassigned -> acc
      | Moving { pending; _ } -> acc + Queue.length pending
      | Orphaned pending -> acc + Queue.length pending)
    0 t.ownership

let ownership_states t =
  let acc = ref [] in
  Array.iteri
    (fun fs o ->
      let state =
        match o with
        | Unassigned -> None
        | Owned id -> Some (State_owned id)
        | Moving { src; dst; pending; _ } ->
          Some (State_moving { src; dst; buffered = Queue.length pending })
        | Orphaned pending ->
          Some (State_orphaned { buffered = Queue.length pending })
      in
      match state with
      | Some s -> acc := (fs_name t fs, s) :: !acc
      | None -> ())
    t.ownership;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let conservation t =
  {
    submitted = t.submitted_n;
    completed = t.completed_n;
    inflight = t.inflight_n;
    buffered = pending_requests t;
    lock_waiting =
      Array.fold_left
        (fun acc d ->
          match d with None -> acc | Some d -> acc + Hashtbl.length d.waits)
        0 t.lock_domains;
  }

(* --- fsck: ledger-vs-memory audit --- *)

let ledger_state_str = function
  | Ledger.Owned o -> Printf.sprintf "owned by s%d" o
  | Ledger.Pending { src = None; dst } -> Printf.sprintf "pending -> s%d" dst
  | Ledger.Pending { src = Some s; dst } ->
    Printf.sprintf "pending s%d -> s%d" s dst
  | Ledger.Orphaned_fs -> "orphaned"

let memory_state_str = function
  | State_owned id -> Printf.sprintf "owned by s%d" (Server_id.to_int id)
  | State_moving { src = None; dst; _ } ->
    Printf.sprintf "pending -> s%d" (Server_id.to_int dst)
  | State_moving { src = Some s; dst; _ } ->
    Printf.sprintf "pending s%d -> s%d" (Server_id.to_int s)
      (Server_id.to_int dst)
  | State_orphaned _ -> "orphaned"

let states_agree ledger_state memory_state =
  String.equal (ledger_state_str ledger_state)
    (memory_state_str memory_state)

let fsck ?(repair = true) t =
  let rep = Ledger.replay t.disk in
  let torn_found = List.length rep.Ledger.torn_seqs in
  let torn_repaired =
    if repair && torn_found > 0 then Ledger.repair t.ledger else 0
  in
  (* Re-scan after a repair so the audit sees the healed log. *)
  let rep = if torn_repaired > 0 then Ledger.replay t.disk else rep in
  let memory = ownership_states t in
  let divergence name ls ms =
    Printf.sprintf "%s: ledger says %s, memory says %s" name
      (match ls with Some s -> ledger_state_str s | None -> "nothing")
      (match ms with Some s -> memory_state_str s | None -> "nothing")
  in
  (* Both sides are name-sorted: a merge-join finds every file set the
     two views disagree on. *)
  let rec diff acc l m =
    match (l, m) with
    | [], [] -> List.rev acc
    | (ln, ls) :: lt, [] -> diff (divergence ln (Some ls) None :: acc) lt []
    | [], (mn, ms) :: mt -> diff (divergence mn None (Some ms) :: acc) [] mt
    | (ln, ls) :: lt, (mn, ms) :: mt ->
      let c = String.compare ln mn in
      if c < 0 then diff (divergence ln (Some ls) None :: acc) lt m
      else if c > 0 then diff (divergence mn None (Some ms) :: acc) l mt
      else if states_agree ls ms then diff acc lt mt
      else diff (divergence ln (Some ls) (Some ms) :: acc) lt mt
  in
  let divergent = diff [] rep.Ledger.ownership memory in
  let remaining_torn = List.length rep.Ledger.torn_seqs in
  bump t "ledger.replays";
  if torn_repaired > 0 then bump ~n:torn_repaired t "ledger.repaired";
  emit t
    (Obs.Event.Ledger_replay
       {
         time = Desim.Sim.now t.sim;
         records = List.length rep.Ledger.records;
         torn = torn_found;
         repaired = torn_repaired;
         divergent = List.length divergent;
       });
  {
    records = List.length rep.Ledger.records;
    torn_found;
    torn_repaired;
    divergent;
    clean = remaining_torn = 0 && divergent = [];
  }
