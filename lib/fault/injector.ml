module Cluster = Sharedfs.Cluster
module Server_id = Sharedfs.Server_id

type actions = {
  crash : domain:string option -> Server_id.t list -> unit;
  recover : domain:string option -> Server_id.t list -> unit;
  crash_delegate : unit -> unit;
  partition :
    domain:string option -> Server_id.t list -> link:Cluster.link -> unit;
  heal : domain:string option -> Server_id.t list -> unit;
}

type t = {
  plan : Plan.t;
  sim : Desim.Sim.t;
  cluster : Cluster.t;
  obs : Obs.Ctx.t;
  actions : actions;
  counts : (string, int ref) Hashtbl.t;
  mutable move_seq : int;  (** moves seen so far, for [Move_crash] *)
  (* Open fault windows: a crash span runs from injected crash to
     injected recovery, a partition span from cut to heal, so traces
     show fault {e windows}, not just their edges.  Keyed by span name,
     domain and, for a solo fault, its server: a domain fault opens one
     span for the whole domain, never one per member. *)
  windows : (string * string option * int option, Obs.Span.id) Hashtbl.t;
}
let bump t name =
  (match Hashtbl.find_opt t.counts name with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts name (ref 1));
  match Obs.Ctx.metrics t.obs with
  | None -> ()
  | Some m -> Obs.Metrics.Counter.incr (Obs.Metrics.counter m ("fault." ^ name))

(* A point fault: counted, and traced as one event. *)
let record t ?server fault =
  bump t (Obs.Event.fault_name fault);
  if Obs.Ctx.tracing t.obs then
    Obs.Ctx.emit t.obs
      (Obs.Event.Fault
         {
           time = Desim.Sim.now t.sim;
           server = Option.map Server_id.to_int server;
           fault;
         })

(* A solo fault's span sits on its server's track; a domain fault's
   names the domain and its size instead. *)
let window_server ~domain members =
  match (domain, members) with
  | None, [ id ] -> Some (Server_id.to_int id)
  | _ -> None

(* Count the opening edge of a fault window and open its span. *)
let begin_window t ~name ~domain members attrs =
  bump t (Obs.Event.window_edge ~name ~domain:(domain <> None) ~closing:false);
  let attrs =
    if not (Obs.Ctx.tracing t.obs) then []
    else
      match domain with
      | None -> attrs
      | Some d ->
        (Obs.Event.Domain d :: attrs)
        @ [ Obs.Event.Members (List.length members) ]
  in
  Obs.Span.begin_ t.obs ~time:(Desim.Sim.now t.sim) ~name ~cat:"fault"
    ?server:(window_server ~domain members)
    ~attrs ()

(* Count the closing edge of a fault window and close [span]. *)
let end_window t ~name ~domain members ?outcome span =
  bump t (Obs.Event.window_edge ~name ~domain:(domain <> None) ~closing:true);
  Obs.Span.end_ t.obs ~time:(Desim.Sim.now t.sim) ~id:span ~name ~cat:"fault"
    ?server:(window_server ~domain members)
    ?outcome ()

(* A crash or partition window opens unless the same window is already
   open, and the matching heal or recovery closes it.  Only these two
   edges count: a crash that finds its window open and a recovery that
   finds none inject nothing. *)
let open_window t ~name ~domain members attrs =
  let key = (name, domain, window_server ~domain members) in
  if not (Hashtbl.mem t.windows key) then
    Hashtbl.replace t.windows key (begin_window t ~name ~domain members attrs)

let close_window t ~name ~domain members ~outcome =
  let key = (name, domain, window_server ~domain members) in
  match Hashtbl.find_opt t.windows key with
  | None -> ()
  | Some span ->
    Hashtbl.remove t.windows key;
    end_window t ~name ~domain members ~outcome span

let crash t ~domain members =
  open_window t ~name:"crash" ~domain members [];
  t.actions.crash ~domain members

let recover t ~domain members =
  close_window t ~name:"crash" ~domain members ~outcome:"recovered";
  t.actions.recover ~domain members

let note_delegate_crash t =
  record t Obs.Event.Delegate_crash;
  t.actions.crash_delegate ()

let link_name = function `Cluster -> "cluster" | `Disk -> "disk"

(* While the partition is open, the isolated server periodically tries
   to write shared metadata from the wrong side — the zombie writes the
   fence must reject.  Probes stop on heal or crash. *)
let zombie_cadence = 5.0

let rec zombie_probe t id =
  if Cluster.is_partitioned t.cluster id then begin
    let (_ : [ `Landed | `Rejected ]) = Cluster.zombie_write t.cluster id in
    let (_ : Desim.Sim.handle) =
      Desim.Sim.schedule t.sim ~delay:zombie_cadence (fun () ->
          zombie_probe t id)
    in
    ()
  end

let partition t ~domain members ~link =
  open_window t ~name:"partition" ~domain members
    [ Obs.Event.Link (link_name link) ];
  t.actions.partition ~domain members ~link;
  (* Every isolated member runs its own zombie-write cadence: the
     first probe shortly after the cut, then on a steady cadence. *)
  List.iter
    (fun id ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule t.sim ~delay:1.0 (fun () -> zombie_probe t id)
      in
      ())
    members

let heal t ~domain members =
  close_window t ~name:"partition" ~domain members ~outcome:"healed";
  t.actions.heal ~domain members

let members t domain =
  match Sharedfs.Topology.servers_of (Cluster.topology t.cluster) domain with
  | Some ids -> ids
  | None ->
    (* Unreachable after [arm]'s validation; kept as a belt for
       hand-built injectors. *)
    invalid_arg
      (Printf.sprintf "Fault.Injector: unknown failure domain %S" domain)

let schedule_timeline t ~duration =
  List.iter
    (fun (at, fault) ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at t.sim ~time:at (fun () ->
            match fault with
            | Plan.Crash server ->
              crash t ~domain:None [ Server_id.of_int server ]
            | Plan.Recover server ->
              recover t ~domain:None [ Server_id.of_int server ]
            | Plan.Delegate_crash -> note_delegate_crash t
            | Plan.Disk_stall { factor; duration = d } ->
              let disk = Cluster.disk t.cluster in
              Sharedfs.Shared_disk.set_stall disk ~factor;
              (* Every stall is its own span, closed by its own id:
                 stalls may overlap, and each names its factor. *)
              let span =
                begin_window t ~name:"disk-stall" ~domain:None []
                  [ Obs.Event.Factor factor ]
              in
              let (_ : Desim.Sim.handle) =
                Desim.Sim.schedule t.sim ~delay:d (fun () ->
                    Sharedfs.Shared_disk.clear_stall disk ~factor;
                    end_window t ~name:"disk-stall" ~domain:None [] span)
              in
              ()
            | Plan.Partition { server; link } ->
              partition t ~domain:None [ Server_id.of_int server ] ~link
            | Plan.Heal { server; link = _ } ->
              heal t ~domain:None [ Server_id.of_int server ]
            | Plan.Domain_crash domain ->
              crash t ~domain:(Some domain) (members t domain)
            | Plan.Domain_recover domain ->
              recover t ~domain:(Some domain) (members t domain)
            | Plan.Domain_partition { domain; link } ->
              partition t ~domain:(Some domain) (members t domain) ~link
            | Plan.Domain_heal { domain; link = _ } ->
              heal t ~domain:(Some domain) (members t domain))
      in
      ())
    (Plan.timeline t.plan ~duration)

let arm_move_crashes t =
  match Plan.move_crashes t.plan with
  | [] -> ()
  | targets ->
    Cluster.set_on_move_start t.cluster
      (fun ~file_set ~src ~dst ~flush_seconds ~init_seconds ->
        let nth = t.move_seq in
        t.move_seq <- nth + 1;
        List.iter
          (fun (target, role) ->
            if target = nth then
              (* Land the crash strictly inside the window it must
                 interrupt: mid-flush for the source (after the flush
                 finishes the image is safe on the shared disk), and
                 mid-transfer overall for the destination. *)
              let victim, offset =
                match role with
                | `Src -> (src, 0.5 *. flush_seconds)
                | `Dst -> (Some dst, 0.5 *. (flush_seconds +. init_seconds))
              in
              match victim with
              | Some id when offset > 0.0 ->
                ignore file_set;
                let (_ : Desim.Sim.handle) =
                  Desim.Sim.schedule t.sim ~delay:offset (fun () ->
                      crash t ~domain:None [ id ])
                in
                ()
              | Some _ | None -> ())
          targets)

let arm_torn_writes t =
  match Plan.torn_appends t.plan with
  | [] -> ()
  | targets ->
    let ledger = Cluster.ledger t.cluster in
    List.iter (fun nth -> Sharedfs.Ledger.arm_torn ledger ~nth) targets;
    Cluster.set_on_torn t.cluster (fun ~seq ->
        record t (Obs.Event.Ledger_torn { seq }))

let arm ~sim ~cluster ~obs ~duration ~actions plan =
  (* Fail fast: a domain name the topology does not know would
     otherwise only blow up at its scheduled virtual time, deep in the
     run. *)
  (let topo = Cluster.topology cluster in
   List.iter
     (fun domain ->
       if not (Sharedfs.Topology.mem_domain topo domain) then
         invalid_arg
           (Printf.sprintf
              "Fault.Injector.arm: plan references failure domain %S, but \
               the cluster topology only has: %s"
              domain
              (match Sharedfs.Topology.domain_names topo with
              | [] -> "(none)"
              | names -> String.concat ", " names)))
     (Plan.domains plan));
  let t =
    {
      plan;
      sim;
      cluster;
      obs;
      actions;
      counts = Hashtbl.create 8;
      move_seq = 0;
      windows = Hashtbl.create 4;
    }
  in
  schedule_timeline t ~duration;
  arm_move_crashes t;
  arm_torn_writes t;
  t

(* SplitMix64-style avalanche, so that (round, server, attempt) maps to
   an uncorrelated stream regardless of evaluation order. *)
let mix seed round server attempt =
  let h = ref (Int64.of_int seed) in
  let feed v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001b3L
  in
  feed (round * 3 + 1);
  feed ((server * 2) + 1);
  feed (attempt + 1);
  Int64.to_int !h land max_int

let fate t ~round ~server ~attempt =
  let p = Plan.report_loss_probability t.plan in
  let delay_spec = Plan.report_delay t.plan in
  if p <= 0.0 && delay_spec = None then `Deliver 0.0
  else
    let rng =
      Desim.Rng.create
        (mix (Plan.seed t.plan) round (Server_id.to_int server) attempt)
    in
    let lost = p > 0.0 && Desim.Rng.float rng < p in
    if lost then begin
      record t ~server (Obs.Event.Report_lost { attempt });
      (match Obs.Ctx.metrics t.obs with
      | None -> ()
      | Some m ->
        Obs.Metrics.Counter.incr (Obs.Metrics.counter m "reports.lost"));
      `Lost
    end
    else
      match delay_spec with
      | None -> `Deliver 0.0
      | Some (base, jitter) ->
        let delay = base +. (Desim.Rng.float rng *. jitter) in
        if delay > 0.0 then
          record t ~server (Obs.Event.Report_delayed { delay });
        `Deliver delay

let faults_injected t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
