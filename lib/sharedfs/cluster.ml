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

type buffered = {
  req : Request.t;
  fs : int;  (* interned id of req.file_set; carried so replay paths
                never re-hash the name *)
  base_demand : float;
  arrival : float;
  span : Obs.Span.id;  (* the request's root span; none when not tracing *)
  mutable bspan : Obs.Span.id;
      (* open "buffered" child while the request waits out a move or an
         orphaned set; ends (and is reset) on delivery *)
  on_complete : latency:float -> unit;
}

type ownership =
  | Unassigned
  | Owned of Server_id.t
  | Moving of {
      src : Server_id.t option;
      dst : Server_id.t;
      pending : buffered Queue.t;
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
  | Orphaned of buffered Queue.t

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

(* A lock acquisition that queued behind a conflicting hold: its
   completion callback is deferred until the grant. *)
type lock_waiter = { arrival : float; notify : latency:float -> unit }

(* The lock state of one file set.  Lock keys are [{fs; ino}], so a
   single cluster-wide table is already logically partitioned by [fs];
   materializing the partition keeps each table tiny. *)
type lock_domain = {
  lm : Lock_manager.t;
  waits : (Lock_manager.key * int, lock_waiter) Hashtbl.t;
}

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

type t = {
  sim : Desim.Sim.t;
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
      (* dense [Server_id.to_int]-indexed view, built by
         [set_stream_sink] so the streaming path never hashes an id *)
  mutable stream_sink : (fs:int -> latency:float -> unit) option;
  ownership : ownership array;  (* indexed by interned file-set id *)
  inflight : (int, buffered) Hashtbl.t;
  lock_domains : lock_domain option array;
      (* indexed by interned file-set id; created on first lock touch *)
  mutable lock_stats : lock_stats;
  mutable next_tag : int;
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
    |> List.sort (fun a b -> Server_id.compare (Server.id a) (Server.id b))

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
      stream_sink = None;
      ownership =
        Array.make (max 1 (File_set.Interner.size interner)) Unassigned;
      inflight = Hashtbl.create 1024;
      lock_domains =
        Array.make (max 1 (File_set.Interner.size interner)) None;
      lock_stats =
        { granted_immediately = 0; waited = 0; cancelled = 0; leases_expired = 0 };
      next_tag = 0;
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

let lock_key b =
  { Lock_manager.fs = b.fs; ino = abs b.req.Request.path_hash }

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

(* Fire the deferred completions of clients whose queued acquisitions
   were just granted, and start their leases. *)
let rec grant_waiters t d key granted =
  List.iter
    (fun client ->
      match Hashtbl.find_opt d.waits (key, client) with
      | None -> ()
      | Some waiter ->
        Hashtbl.remove d.waits (key, client);
        start_lease t d key client;
        waiter.notify ~latency:(Desim.Sim.now t.sim -. waiter.arrival))
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

(* The server has finished processing the request; apply the lock
   semantics before reporting completion to the client. *)
let complete_request t b ~latency =
  let req = b.req in
  match req.Request.op with
  | Request.Lock_acquire ->
    let d = domain_of t b.fs in
    let key = lock_key b in
    let client = req.Request.client in
    if List.mem_assoc client (Lock_manager.holders d.lm ~key) then
      (* Re-acquisition of a held lock: grant immediately. *)
      b.on_complete ~latency
    else begin
      match Lock_manager.acquire d.lm ~key ~client ~mode:(Request.lock_mode req) with
      | `Granted ->
        t.lock_stats <-
          {
            t.lock_stats with
            granted_immediately = t.lock_stats.granted_immediately + 1;
          };
        start_lease t d key client;
        b.on_complete ~latency
      | `Queued ->
        t.lock_stats <- { t.lock_stats with waited = t.lock_stats.waited + 1 };
        Hashtbl.add d.waits (key, client)
          { arrival = b.arrival; notify = b.on_complete }
    end
  | Request.Lock_release ->
    let d = domain_of t b.fs in
    let key = lock_key b in
    let client = req.Request.client in
    let was_waiting = Hashtbl.find_opt d.waits (key, client) in
    let granted = Lock_manager.release d.lm ~key ~client in
    (match was_waiting with
    | Some waiter ->
      (* The release cancelled the client's own queued acquisition:
         complete it now so no caller is left hanging. *)
      Hashtbl.remove d.waits (key, client);
      t.lock_stats <-
        { t.lock_stats with cancelled = t.lock_stats.cancelled + 1 };
      waiter.notify ~latency:(Desim.Sim.now t.sim -. waiter.arrival)
    | None -> ());
    grant_waiters t d key granted;
    b.on_complete ~latency
  | Request.Open_file | Request.Close_file | Request.Stat | Request.Create
  | Request.Remove | Request.Rename | Request.Readdir | Request.Set_attr ->
    b.on_complete ~latency

let deliver t id b =
  let server = server t id in
  let tag = t.next_tag in
  t.next_tag <- tag + 1;
  Hashtbl.add t.inflight tag b;
  let now = Desim.Sim.now t.sim in
  let extra_latency = now -. b.arrival in
  let sid = Server_id.to_int id in
  (* Close the buffered stage (if the request waited out a move) and
     record the stages that follow.  A queue stage is opened only when
     the server is busy, so the request will really wait; [on_start]
     then closes it and opens service with the station's computed
     service time, splitting queueing delay from service exactly.  An
     idle server starts service at delivery.  All span work is behind
     the tracing branch; the [on_start] closure is only built when some
     observer (sinks or telemetry) wants it. *)
  if b.bspan <> Obs.Span.none then begin
    Obs.Span.end_ t.obs ~time:now ~id:b.bspan ~name:"buffered" ~cat:"request"
      ~server:sid ();
    b.bspan <- Obs.Span.none
  end;
  let tracing = Obs.Ctx.tracing t.obs in
  let qspan =
    if tracing && Server.in_service server then
      Obs.Span.begin_ t.obs ~time:now ~parent:b.span ~name:"queue"
        ~cat:"request" ~server:sid ~file_set:b.req.Request.file_set ()
    else Obs.Span.none
  in
  let sspan = ref Obs.Span.none in
  let on_start =
    if (not tracing) && t.telemetry = None then None
    else
      Some
        (fun ~service ->
          let started = Desim.Sim.now t.sim in
          (match t.telemetry with
          | Some tl ->
            Obs.Telemetry.observe_service tl ~time:started ~server:sid ~service
          | None -> ());
          Obs.Span.end_ t.obs ~time:started ~id:qspan ~name:"queue"
            ~cat:"request" ~server:sid ();
          sspan :=
            Obs.Span.begin_ t.obs ~time:started ~parent:b.span ~name:"service"
              ~cat:"request" ~server:sid ~file_set:b.req.Request.file_set ())
  in
  Server.submit server ~fs:b.fs ~base_demand:b.base_demand ~tag ~extra_latency
    ?on_start b.req ~on_complete:(fun ~latency ->
      Hashtbl.remove t.inflight tag;
      (match t.instruments with
      | None -> ()
      | Some i ->
        Obs.Metrics.Counter.incr i.completed_ctr;
        Obs.Metrics.Histogram.observe i.latency latency);
      let finished = Desim.Sim.now t.sim in
      (match t.telemetry with
      | Some tl ->
        Obs.Telemetry.observe_complete tl ~time:finished ~server:sid
          ~queue_depth:(Server.queue_length server) ~latency
      | None -> ());
      if tracing then begin
        Obs.Span.end_ t.obs ~time:finished ~id:!sspan ~name:"service"
          ~cat:"request" ~server:sid ();
        Obs.Span.end_ t.obs ~time:finished ~id:b.span ~name:"request"
          ~cat:"request" ~server:sid ()
      end;
      complete_request t b ~latency)

(* A request span's [Op] attribute as a preallocated one-element list
   per operation, so a traced submission allocates only the [Client]
   cell in front of it. *)
let op_attrs =
  List.map
    (fun op -> (op, [ Obs.Event.Op (Request.op_name op) ]))
    Request.all_ops

let op_attr op = List.assq op op_attrs

let submit_fs t ~fs ~base_demand req ~on_complete =
  (* Wrap the completion so the conservation counters see every exit
     path — direct completion, deferred lock grant, replay after a
     move or a crash — exactly once. *)
  let on_complete ~latency =
    t.completed_n <- t.completed_n + 1;
    on_complete ~latency
  in
  let arrival = Desim.Sim.now t.sim in
  (match t.telemetry with
  | Some tl ->
    Obs.Telemetry.observe_submit tl ~time:arrival
      ~file_set:req.Request.file_set
  | None -> ());
  (* The request span is the request's whole record: its begin
     carries the file set, client and operation, its end the server. *)
  let span =
    if Obs.Ctx.tracing t.obs then
      Obs.Span.begin_ t.obs ~time:arrival ~name:"request" ~cat:"request"
        ~file_set:req.Request.file_set
        ~attrs:(Obs.Event.Client req.Request.client :: op_attr req.Request.op)
        ()
    else Obs.Span.none
  in
  let b =
    { req; fs; base_demand; arrival; span; bspan = Obs.Span.none; on_complete }
  in
  t.submitted_n <- t.submitted_n + 1;
  (match t.instruments with
  | None -> ()
  | Some i -> Obs.Metrics.Counter.incr i.submitted);
  (* A request held back by a move or an orphaned set gets an explicit
     "buffered" stage, so forensics can attribute that part of its
     latency to the move rather than to queueing. *)
  let buffer_into pending =
    b.bspan <-
      Obs.Span.begin_ t.obs ~time:arrival ~parent:span ~name:"buffered"
        ~cat:"request" ~file_set:req.Request.file_set ();
    Queue.add b pending
  in
  match t.ownership.(fs) with
  | Owned id -> deliver t id b
  | Moving { pending; _ } -> buffer_into pending
  | Orphaned pending -> buffer_into pending
  | Unassigned ->
    failwith
      ("Cluster.submit: file set never assigned: " ^ req.Request.file_set)

let submit t ~base_demand req ~on_complete =
  let name = req.Request.file_set in
  match File_set.Interner.find t.interner name with
  | Some fs -> submit_fs t ~fs ~base_demand req ~on_complete
  | None -> failwith ("Cluster.submit: file set never assigned: " ^ name)

(* --- allocation-free streaming submission ---

   Plain operations carry the file-set id itself as the station tag: a
   completion only needs the set for accounting, so the request costs
   no closure, no [buffered] record and no [inflight] entry.  Lock
   operations still need per-request rendezvous state (the waiter
   tables key on client and path), so they get tags in a disjoint
   range ([>= lock_base]) that the sink routes through [inflight] and
   [complete_request] — identical semantics to the closure path.
   Requests arriving for a set that is mid-move buffer a full
   [buffered] record, so move replay uses the ordinary [deliver] path
   unchanged (demand is computed at drain time against the
   destination's cold cache, exactly as the closure path does). *)

let lock_base = 1 lsl 30

let is_lock_op = function
  | Request.Lock_acquire | Request.Lock_release -> true
  | Request.Open_file | Request.Close_file | Request.Stat | Request.Create
  | Request.Remove | Request.Rename | Request.Readdir | Request.Set_attr ->
    false

let set_stream_sink t k =
  t.stream_sink <- Some k;
  let max_id =
    List.fold_left
      (fun m s -> max m (Server_id.to_int (Server.id s)))
      0 t.sorted_servers
  in
  let by_int = Array.make (max_id + 1) None in
  List.iter
    (fun s -> by_int.(Server_id.to_int (Server.id s)) <- Some s)
    t.sorted_servers;
  t.servers_by_int <- by_int;
  List.iter
    (fun s ->
      Server.set_stream_sink s (fun ~tag ~latency ->
          if tag < lock_base then begin
            t.completed_n <- t.completed_n + 1;
            k ~fs:tag ~latency
          end
          else
            match Hashtbl.find_opt t.inflight tag with
            | Some b ->
              Hashtbl.remove t.inflight tag;
              complete_request t b ~latency
            | None -> assert false))
    t.sorted_servers

let stream_server_exn t id =
  match t.servers_by_int.(Server_id.to_int id) with
  | Some s -> s
  | None -> assert false (* set_stream_sink built the table *)

let submit_stream t ~fs ~op ~base_demand ~path_hash ~client =
  t.submitted_n <- t.submitted_n + 1;
  match t.ownership.(fs) with
  | Owned id when not (is_lock_op op) ->
    Server.submit_stream (stream_server_exn t id) ~fs ~op ~base_demand ~tag:fs
  | o -> (
    (* Lock operations and sets caught mid-move take the slow path: a
       full [buffered] record whose completion feeds the sink. *)
    let k =
      match t.stream_sink with
      | Some k -> k
      | None -> failwith "Cluster.submit_stream: set_stream_sink first"
    in
    let on_complete ~latency =
      t.completed_n <- t.completed_n + 1;
      k ~fs ~latency
    in
    let req = { Request.op; file_set = fs_name t fs; path_hash; client } in
    let b =
      {
        req;
        fs;
        base_demand;
        arrival = Desim.Sim.now t.sim;
        span = Obs.Span.none;
        bspan = Obs.Span.none;
        on_complete;
      }
    in
    match o with
    | Owned id ->
      let tag = lock_base + t.next_tag in
      t.next_tag <- t.next_tag + 1;
      Hashtbl.add t.inflight tag b;
      Server.submit_stream (stream_server_exn t id) ~fs ~op ~base_demand ~tag
    | Moving { pending; _ } -> Queue.add b pending
    | Orphaned pending -> Queue.add b pending
    | Unassigned ->
      failwith
        ("Cluster.submit_stream: file set never assigned: " ^ fs_name t fs))

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
  let end_move outcome =
    Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:mspan ~name:"move"
      ~cat:"move" ~server:(Server_id.to_int dst) ~outcome ()
  in
  if Server.failed dst_server then begin
    (* Destination died while the set was in transit: the set is
       orphaned again and the failure handler's caller re-places it. *)
    end_move "orphan";
    t.ownership.(fs) <- Orphaned pending;
    journal t Ledger.Commit (Ledger.Orphan { file_set = fs_name t fs })
  end
  else begin
    end_move "commit";
    Server.gain_file_set dst_server ~fs ~cold:true;
    t.ownership.(fs) <- Owned dst;
    journal t Ledger.Commit
      (Ledger.Move
         {
           file_set = fs_name t fs;
           src = Option.map Server_id.to_int src;
           dst = Server_id.to_int dst;
         });
    if Obs.Ctx.tracing t.obs then
      Obs.Ctx.emit t.obs
        (Obs.Event.Move_end
           {
             time = Desim.Sim.now t.sim;
             file_set = fs_name t fs;
             dst = Server_id.to_int dst;
             replayed = Queue.length pending;
           });
    Queue.iter (fun b -> deliver t dst b) pending;
    Queue.clear pending
  end

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
  if Obs.Ctx.tracing t.obs then
    Obs.Ctx.emit t.obs
      (Obs.Event.Move_start
         {
           time = Desim.Sim.now t.sim;
           file_set;
           src = Option.map Server_id.to_int src;
           dst = Server_id.to_int dst;
           flush_seconds;
           init_seconds;
         });
  t.move_log <-
    {
      started_at = Desim.Sim.now t.sim;
      file_set;
      src;
      dst;
      flush_seconds;
      init_seconds;
    }
    :: t.move_log

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
    t.ownership.(fs) <-
      Moving
        {
          src = Some src;
          dst;
          pending;
          handle;
          flush_done_at = Desim.Sim.now t.sim +. flush_seconds;
          span =
            Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"move"
              ~cat:"move" ~server:(Server_id.to_int dst) ~file_set ();
        };
    record_move t ~file_set ~src:(Some src) ~dst ~flush_seconds ~init_seconds;
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
    t.ownership.(fs) <-
      Moving
        {
          src = None;
          dst;
          pending;
          handle;
          flush_done_at = Desim.Sim.now t.sim;
          span =
            Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name:"move"
              ~cat:"move" ~server:(Server_id.to_int dst) ~file_set ();
        };
    record_move t ~file_set ~src:None ~dst ~flush_seconds:0.0 ~init_seconds;
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
    let interrupted_tags = Server.fail failed_server in
    let interrupted =
      List.filter_map
        (fun tag ->
          let b = Hashtbl.find_opt t.inflight tag in
          Hashtbl.remove t.inflight tag;
          b)
        interrupted_tags
      |> List.sort (fun (a : buffered) (b : buffered) ->
             Float.compare a.arrival b.arrival)
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
          ~server:(Server_id.to_int id) ~outcome:"interrupted" ();
        t.ownership.(fs) <- Orphaned pending;
        journal t Ledger.Commit (Ledger.Orphan { file_set = name });
        t.moves_failed <- t.moves_failed + 1;
        (match t.instruments with
        | None -> ()
        | Some i -> Obs.Metrics.Counter.incr i.moves_failed);
        if Obs.Ctx.tracing t.obs then
          Obs.Ctx.emit t.obs
            (Obs.Event.Fault
               {
                 time = now;
                 server = Some (Server_id.to_int id);
                 file_set = Some name;
                 fault = Obs.Event.Move_interrupted { role };
               }))
      dead_moves;
    List.iter
      (fun b ->
        t.rebuffered <- t.rebuffered + 1;
        (match t.instruments with
        | None -> ()
        | Some i -> Obs.Metrics.Counter.incr i.rebuffered);
        match t.ownership.(b.fs) with
        | Orphaned q -> Queue.add b q
        | Moving { pending; _ } -> Queue.add b pending
        | Owned owner -> deliver t owner b
        | Unassigned -> ())
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
  rebuild_sorted_servers t

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
    inflight = Hashtbl.length t.inflight;
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
