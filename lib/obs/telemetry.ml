type config = {
  interval : float;
  top_k : int;
  max_tracked_servers : int option;
}

let default_config = { interval = 60.0; top_k = 10; max_tracked_servers = None }

(* --- Space-saving heavy-hitter sketch (Metwally et al.) ---

   Tracks at most [capacity] keys.  A miss at capacity evicts the
   minimum-count entry and adopts its count as the newcomer's floor,
   recording that floor as the overestimate error.  Guarantees every
   key with true frequency > N/capacity is present. *)
module Sketch = struct
  (* Slot [i < size] tracks [keys.(i)] with its count and error in the
     parallel int arrays; [index] maps a tracked key to its slot.  The
     arrays make the eviction scan a plain loop: no closure, no tuple
     per candidate. *)
  type t = {
    keys : string array;
    counts : int array;
    errors : int array;
    mutable size : int;
    index : (string, int) Hashtbl.t;
  }

  let create ~capacity =
    if capacity <= 0 then
      invalid_arg "Telemetry.Sketch.create: capacity must be > 0";
    {
      keys = Array.make capacity "";
      counts = Array.make capacity 0;
      errors = Array.make capacity 0;
      size = 0;
      index = Hashtbl.create capacity;
    }

  let observe t key =
    match Hashtbl.find t.index key with
    | i -> t.counts.(i) <- t.counts.(i) + 1
    | exception Not_found ->
      if t.size < Array.length t.keys then begin
        let i = t.size in
        t.size <- i + 1;
        t.keys.(i) <- key;
        t.counts.(i) <- 1;
        t.errors.(i) <- 0;
        Hashtbl.add t.index key i
      end
      else begin
        (* Evict the minimum-count entry; break count ties on the
           smallest key so the sketch is deterministic across runs. *)
        let v = ref 0 in
        for i = 1 to t.size - 1 do
          let c = t.counts.(i) and vc = t.counts.(!v) in
          if c < vc || (c = vc && String.compare t.keys.(i) t.keys.(!v) < 0)
          then v := i
        done;
        let v = !v in
        let floor = t.counts.(v) in
        Hashtbl.remove t.index t.keys.(v);
        t.keys.(v) <- key;
        t.counts.(v) <- floor + 1;
        t.errors.(v) <- floor;
        Hashtbl.add t.index key v
      end

  (* Entries sorted by count desc, then key asc — a stable ranking. *)
  let ranked t =
    List.init t.size (fun i -> (t.keys.(i), t.counts.(i), t.errors.(i)))
    |> List.sort (fun (ka, ca, _) (kb, cb, _) ->
           if ca <> cb then compare cb ca else String.compare ka kb)
end

type server_state = {
  queue_depth : Desim.Timeseries.t;
  occupancy : Desim.Timeseries.t;  (* service-seconds started per bucket *)
  latency : Desim.Timeseries.t;
  mutable busy_seconds : float;
  mutable requests : int;
}

(* Scalar totals kept for every server when the series cap is on: at
   10,000 servers the per-bucket point lists are what blow memory up,
   while two scalars per server stay trivial, so requests and
   utilization remain exact for everybody no matter the cap. *)
type scalar_state = { mutable s_requests : int; mutable s_busy : float }

type t = {
  config : config;
  servers : (int, server_state) Hashtbl.t;
  scalars : (int, scalar_state) Hashtbl.t;  (* capped mode only *)
  mutable tracked_min : int;
      (* lower bound on the smallest tracked request count; promotion
         scans only when a scalar count crosses it *)
  request_rate : Desim.Timeseries.t;
  sketch : Sketch.t;
  mutable total_requests : int;
}

let of_config config =
  if config.interval <= 0.0 then
    invalid_arg "Telemetry.create: interval must be positive";
  (match config.max_tracked_servers with
  | Some k when k <= 0 ->
    invalid_arg "Telemetry.create: max_tracked_servers must be > 0"
  | Some _ | None -> ());
  {
    config;
    servers = Hashtbl.create 16;
    scalars = Hashtbl.create 16;
    tracked_min = 0;
    request_rate = Desim.Timeseries.create ~interval:config.interval;
    sketch = Sketch.create ~capacity:(max 1 config.top_k);
    total_requests = 0;
  }

let create ?(interval = default_config.interval)
    ?(top_k = default_config.top_k) ?max_tracked_servers () =
  of_config { interval; top_k; max_tracked_servers }

let config t = t.config

let fresh_state t =
  {
    queue_depth = Desim.Timeseries.create ~interval:t.config.interval;
    occupancy = Desim.Timeseries.create ~interval:t.config.interval;
    latency = Desim.Timeseries.create ~interval:t.config.interval;
    busy_seconds = 0.0;
    requests = 0;
  }

let server_state t server =
  match Hashtbl.find_opt t.servers server with
  | Some s -> s
  | None ->
    let s = fresh_state t in
    Hashtbl.add t.servers server s;
    s

let scalar_state t server =
  match Hashtbl.find_opt t.scalars server with
  | Some s -> s
  | None ->
    let s = { s_requests = 0; s_busy = 0.0 } in
    Hashtbl.add t.scalars server s;
    s

(* Capped-mode series lookup: the first [k] servers get series
   outright; afterwards a server whose completed-request total
   overtakes the smallest tracked total evicts that entry
   (space-saving over servers — the same idea as the file-set sketch,
   with the per-server scalar as the exact count).  Ties evict the
   smallest id, mirroring the sketch's determinism rule.  A promoted
   server starts fresh series from its promotion time; its scalar
   totals are unaffected. *)
let tracked_state t server ~(scalar : scalar_state) =
  match Hashtbl.find_opt t.servers server with
  | Some s -> Some s
  | None ->
    let k =
      match t.config.max_tracked_servers with Some k -> k | None -> assert false
    in
    if Hashtbl.length t.servers < k then begin
      let s = fresh_state t in
      Hashtbl.add t.servers server s;
      Some s
    end
    else if scalar.s_requests <= t.tracked_min then None
    else begin
      let victim = ref None in
      Hashtbl.iter
        (fun id (s : server_state) ->
          match !victim with
          | None -> victim := Some (id, s)
          | Some (vid, vs) ->
            if
              s.requests < vs.requests
              || (s.requests = vs.requests && id < vid)
            then victim := Some (id, s))
        t.servers;
      match !victim with
      | None -> None
      | Some (vid, vs) ->
        t.tracked_min <- vs.requests;
        if scalar.s_requests <= vs.requests then None
        else begin
          Hashtbl.remove t.servers vid;
          let s = fresh_state t in
          Hashtbl.add t.servers server s;
          Some s
        end
    end

let observe_submit t ~time ~file_set =
  t.total_requests <- t.total_requests + 1;
  Desim.Timeseries.observe t.request_rate ~time 1.0;
  Sketch.observe t.sketch file_set

let observe_service t ~time ~server ~service =
  match t.config.max_tracked_servers with
  | None ->
    let s = server_state t server in
    s.busy_seconds <- s.busy_seconds +. service;
    Desim.Timeseries.observe s.occupancy ~time service
  | Some _ ->
    let sc = scalar_state t server in
    sc.s_busy <- sc.s_busy +. service;
    (match tracked_state t server ~scalar:sc with
    | Some s ->
      s.busy_seconds <- s.busy_seconds +. service;
      Desim.Timeseries.observe s.occupancy ~time service
    | None -> ())

let observe_complete t ~time ~server ~queue_depth ~latency =
  match t.config.max_tracked_servers with
  | None ->
    let s = server_state t server in
    s.requests <- s.requests + 1;
    Desim.Timeseries.observe s.queue_depth ~time (float_of_int queue_depth);
    Desim.Timeseries.observe s.latency ~time latency
  | Some _ ->
    let sc = scalar_state t server in
    sc.s_requests <- sc.s_requests + 1;
    (match tracked_state t server ~scalar:sc with
    | Some s ->
      s.requests <- s.requests + 1;
      Desim.Timeseries.observe s.queue_depth ~time (float_of_int queue_depth);
      Desim.Timeseries.observe s.latency ~time latency
    | None -> ())

type server_summary = {
  server : int;
  requests : int;
  busy_seconds : float;
  utilization : float;
  queue_depth : Desim.Timeseries.point list;
  occupancy : Desim.Timeseries.point list;
  latency : Desim.Timeseries.point list;
}

type heavy_hitter = { file_set : string; count : int; overestimate : int }

type snapshot = {
  interval : float;
  until : float;
  total_requests : int;
  servers : server_summary list;
  request_rate : Desim.Timeseries.point list;
  heavy_hitters : heavy_hitter list;
}

let snapshot (t : t) ~until =
  let servers =
    match t.config.max_tracked_servers with
    | None ->
      Hashtbl.fold
        (fun server (s : server_state) acc ->
          {
            server;
            requests = s.requests;
            busy_seconds = s.busy_seconds;
            utilization =
              (if until > 0.0 then s.busy_seconds /. until else 0.0);
            queue_depth = Desim.Timeseries.finish s.queue_depth ~until;
            occupancy = Desim.Timeseries.finish s.occupancy ~until;
            latency = Desim.Timeseries.finish s.latency ~until;
          }
          :: acc)
        t.servers []
      |> List.sort (fun a b -> compare a.server b.server)
    | Some _ ->
      (* Scalar totals are exact for every server; series exist only
         for the currently-tracked top-k (a promoted server's series
         start at its promotion, so they may cover less than its
         scalar totals). *)
      Hashtbl.fold
        (fun server (sc : scalar_state) acc ->
          let series =
            match Hashtbl.find_opt t.servers server with
            | Some s ->
              ( Desim.Timeseries.finish s.queue_depth ~until,
                Desim.Timeseries.finish s.occupancy ~until,
                Desim.Timeseries.finish s.latency ~until )
            | None -> ([], [], [])
          in
          let queue_depth, occupancy, latency = series in
          {
            server;
            requests = sc.s_requests;
            busy_seconds = sc.s_busy;
            utilization = (if until > 0.0 then sc.s_busy /. until else 0.0);
            queue_depth;
            occupancy;
            latency;
          }
          :: acc)
        t.scalars []
      |> List.sort (fun a b -> compare a.server b.server)
  in
  {
    interval = t.config.interval;
    until;
    total_requests = t.total_requests;
    servers;
    request_rate = Desim.Timeseries.finish t.request_rate ~until;
    heavy_hitters =
      List.map
        (fun (file_set, count, overestimate) ->
          { file_set; count; overestimate })
        (Sketch.ranked t.sketch);
  }

(* --- JSON rendering (behind --telemetry-json) --- *)

let num x = Json.Num x

let int n = num (float_of_int n)

let points_to_json points =
  Json.List
    (List.map
       (fun (p : Desim.Timeseries.point) ->
         Json.Obj
           [
             ("bucket_start", num p.bucket_start);
             ("mean", num p.mean);
             ("count", int p.count);
             ("max", num p.max);
           ])
       points)

let snapshot_to_json (s : snapshot) =
  Json.Obj
    [
      ("interval", num s.interval);
      ("until", num s.until);
      ("total_requests", int s.total_requests);
      ( "servers",
        Json.List
          (List.map
             (fun sv ->
               Json.Obj
                 [
                   ("server", int sv.server);
                   ("requests", int sv.requests);
                   ("busy_seconds", num sv.busy_seconds);
                   ("utilization", num sv.utilization);
                   ("queue_depth", points_to_json sv.queue_depth);
                   ("occupancy", points_to_json sv.occupancy);
                   ("latency", points_to_json sv.latency);
                 ])
             s.servers) );
      ("request_rate", points_to_json s.request_rate);
      ( "heavy_hitters",
        Json.List
          (List.map
             (fun h ->
               Json.Obj
                 [
                   ("file_set", Json.Str h.file_set);
                   ("count", int h.count);
                   ("overestimate", int h.overestimate);
                 ])
             s.heavy_hitters) );
    ]

let pp_snapshot ppf (s : snapshot) =
  Fmt.pf ppf "telemetry: interval=%.0fs requests=%d servers=%d@." s.interval
    s.total_requests (List.length s.servers);
  List.iter
    (fun sv ->
      Fmt.pf ppf "  server %d: requests=%d busy=%.1fs utilization=%.3f@."
        sv.server sv.requests sv.busy_seconds sv.utilization)
    s.servers;
  if s.heavy_hitters <> [] then begin
    Fmt.pf ppf "  hot file sets (space-saving, top %d):@."
      (List.length s.heavy_hitters);
    List.iter
      (fun h ->
        Fmt.pf ppf "    %-24s %8d (overestimate <= %d)@." h.file_set h.count
          h.overestimate)
      s.heavy_hitters
  end
