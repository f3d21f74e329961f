type config = {
  interval : float;
  top_k : int;
  max_tracked_servers : int option;
}

let default_config = { interval = 60.0; top_k = 10; max_tracked_servers = None }

(* --- Space-saving heavy-hitter sketch (Metwally et al.) ---

   Tracks at most [capacity] file sets, by index.  A miss at capacity
   evicts the minimum-count entry and adopts its count as the
   newcomer's floor, recording that floor as the overestimate error.
   Guarantees every key with true frequency > N/capacity is present.
   Ties are broken on the file-set names, so the sketch ranks and
   evicts exactly as one keyed by name would. *)
module Sketch = struct
  (* Slot [i < size] tracks file set [keys.(i)] with its count and
     error in the parallel int arrays; [slot_of.(fs)] is that slot, or
     -1 while [fs] is untracked.  The arrays make the eviction scan a
     plain loop: no closure, no tuple per candidate. *)
  type t = {
    keys : int array;
    counts : int array;
    errors : int array;
    mutable size : int;
    mutable slot_of : int array;
  }

  let create ~capacity =
    if capacity <= 0 then
      invalid_arg "Telemetry.Sketch.create: capacity must be > 0";
    {
      keys = Array.make capacity 0;
      counts = Array.make capacity 0;
      errors = Array.make capacity 0;
      size = 0;
      slot_of = [||];
    }

  let grow t fs =
    let n = Array.length t.slot_of in
    let slot_of = Array.make (max (fs + 1) (2 * n)) (-1) in
    Array.blit t.slot_of 0 slot_of 0 n;
    t.slot_of <- slot_of

  let observe t ~names fs =
    if fs >= Array.length t.slot_of then grow t fs;
    let i = t.slot_of.(fs) in
    if i >= 0 then t.counts.(i) <- t.counts.(i) + 1
    else if t.size < Array.length t.keys then begin
      let i = t.size in
      t.size <- i + 1;
      t.keys.(i) <- fs;
      t.counts.(i) <- 1;
      t.errors.(i) <- 0;
      t.slot_of.(fs) <- i
    end
    else begin
      (* Evict the minimum-count entry; break count ties on the
         smallest name so the sketch is deterministic across runs. *)
      let v = ref 0 in
      for i = 1 to t.size - 1 do
        let c = t.counts.(i) and vc = t.counts.(!v) in
        if
          c < vc
          || c = vc
             && String.compare names.(t.keys.(i)) names.(t.keys.(!v)) < 0
        then v := i
      done;
      let v = !v in
      let floor = t.counts.(v) in
      t.slot_of.(t.keys.(v)) <- -1;
      t.keys.(v) <- fs;
      t.counts.(v) <- floor + 1;
      t.errors.(v) <- floor;
      t.slot_of.(fs) <- v
    end

  (* Entries sorted by count desc, then name asc — a stable ranking. *)
  let ranked t ~names =
    List.init t.size (fun i -> (names.(t.keys.(i)), t.counts.(i), t.errors.(i)))
    |> List.sort (fun (ka, ca, _) (kb, cb, _) ->
           if ca <> cb then compare cb ca else String.compare ka kb)
end

(* Busy seconds sit in a one-slot float array: a mutable float field of
   a mixed record boxes on every store, which made each service start
   allocate. *)
type server_state = {
  queue_depth : Desim.Timeseries.t;
  occupancy : Desim.Timeseries.t;  (* service-seconds started per bucket *)
  latency : Desim.Timeseries.t;
  busy_seconds : float array;
  mutable requests : int;
}

(* Scalar totals kept for every server when the series cap is on: at
   10,000 servers the per-bucket point lists are what blow memory up,
   while two scalars per server stay trivial, so requests and
   utilization remain exact for everybody no matter the cap. *)
type scalar_state = { mutable s_requests : int; s_busy : float array }

(* Per-server state sits in arrays indexed by server id, grown on
   demand. *)
type t = {
  config : config;
  mutable clock : float array;  (* the bound time cell *)
  mutable file_sets : string array;  (* the bound file-set names *)
  mutable servers : server_state option array;
  mutable tracked : int;  (* [Some] entries of [servers], capped mode *)
  mutable scalars : scalar_state option array;  (* capped mode only *)
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
    clock = [| 0.0 |];
    file_sets = [||];
    servers = [||];
    tracked = 0;
    scalars = [||];
    tracked_min = 0;
    request_rate = Desim.Timeseries.create ~interval:config.interval;
    sketch = Sketch.create ~capacity:(max 1 config.top_k);
    total_requests = 0;
  }

let create ?(interval = default_config.interval)
    ?(top_k = default_config.top_k) ?max_tracked_servers () =
  of_config { interval; top_k; max_tracked_servers }

let config t = t.config

let bind t ~clock ~file_sets =
  t.clock <- clock;
  t.file_sets <- file_sets

let fresh_state t =
  {
    queue_depth = Desim.Timeseries.create ~interval:t.config.interval;
    occupancy = Desim.Timeseries.create ~interval:t.config.interval;
    latency = Desim.Timeseries.create ~interval:t.config.interval;
    busy_seconds = [| 0.0 |];
    requests = 0;
  }

let grown a server =
  let b = Array.make (max (server + 1) (2 * Array.length a)) None in
  Array.blit a 0 b 0 (Array.length a);
  b

let server_state t server =
  if server >= Array.length t.servers then t.servers <- grown t.servers server;
  match t.servers.(server) with
  | Some s -> s
  | None ->
    let s = fresh_state t in
    t.servers.(server) <- Some s;
    s

let scalar_state t server =
  if server >= Array.length t.scalars then t.scalars <- grown t.scalars server;
  match t.scalars.(server) with
  | Some s -> s
  | None ->
    let s = { s_requests = 0; s_busy = [| 0.0 |] } in
    t.scalars.(server) <- Some s;
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
  if server >= Array.length t.servers then t.servers <- grown t.servers server;
  match t.servers.(server) with
  | Some _ as s -> s
  | None ->
    let k =
      match t.config.max_tracked_servers with Some k -> k | None -> assert false
    in
    let track () =
      let s = fresh_state t in
      t.servers.(server) <- Some s;
      Some s
    in
    if t.tracked < k then begin
      t.tracked <- t.tracked + 1;
      track ()
    end
    else if scalar.s_requests <= t.tracked_min then None
    else begin
      (* The first minimum in id order: ties evict the smallest id. *)
      let victim = ref (-1) and vreq = ref max_int in
      Array.iteri
        (fun id -> function
          | Some (s : server_state) when s.requests < !vreq ->
            victim := id;
            vreq := s.requests
          | Some _ | None -> ())
        t.servers;
      if !victim < 0 then None
      else begin
        t.tracked_min <- !vreq;
        if scalar.s_requests <= !vreq then None
        else begin
          t.servers.(!victim) <- None;
          track ()
        end
      end
    end

let observe_submit t ~fs =
  t.total_requests <- t.total_requests + 1;
  Desim.Timeseries.observe_int t.request_rate ~clock:t.clock 1;
  Sketch.observe t.sketch ~names:t.file_sets fs

let observe_service t ~server ~service =
  match t.config.max_tracked_servers with
  | None ->
    let s = server_state t server in
    s.busy_seconds.(0) <- s.busy_seconds.(0) +. service;
    Desim.Timeseries.observe s.occupancy ~clock:t.clock service
  | Some _ ->
    let sc = scalar_state t server in
    sc.s_busy.(0) <- sc.s_busy.(0) +. service;
    (match tracked_state t server ~scalar:sc with
    | Some s ->
      s.busy_seconds.(0) <- s.busy_seconds.(0) +. service;
      Desim.Timeseries.observe s.occupancy ~clock:t.clock service
    | None -> ())

let observe_complete t ~server ~queue_depth ~latency =
  match t.config.max_tracked_servers with
  | None ->
    let s = server_state t server in
    s.requests <- s.requests + 1;
    Desim.Timeseries.observe_int s.queue_depth ~clock:t.clock queue_depth;
    Desim.Timeseries.observe s.latency ~clock:t.clock latency
  | Some _ ->
    let sc = scalar_state t server in
    sc.s_requests <- sc.s_requests + 1;
    (match tracked_state t server ~scalar:sc with
    | Some s ->
      s.requests <- s.requests + 1;
      Desim.Timeseries.observe_int s.queue_depth ~clock:t.clock queue_depth;
      Desim.Timeseries.observe s.latency ~clock:t.clock latency
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

(* The [Some] entries of an id-indexed array, in id order. *)
let by_id a f =
  let acc = ref [] in
  for id = Array.length a - 1 downto 0 do
    match a.(id) with Some x -> acc := f id x :: !acc | None -> ()
  done;
  !acc

let snapshot (t : t) ~until =
  let servers =
    match t.config.max_tracked_servers with
    | None ->
      by_id t.servers (fun server (s : server_state) ->
          {
            server;
            requests = s.requests;
            busy_seconds = s.busy_seconds.(0);
            utilization =
              (if until > 0.0 then s.busy_seconds.(0) /. until else 0.0);
            queue_depth = Desim.Timeseries.finish s.queue_depth ~until;
            occupancy = Desim.Timeseries.finish s.occupancy ~until;
            latency = Desim.Timeseries.finish s.latency ~until;
          })
    | Some _ ->
      (* Scalar totals are exact for every server; series exist only
         for the currently-tracked top-k (a promoted server's series
         start at its promotion, so they may cover less than its
         scalar totals). *)
      by_id t.scalars (fun server (sc : scalar_state) ->
          let queue_depth, occupancy, latency =
            match
              if server < Array.length t.servers then t.servers.(server)
              else None
            with
            | Some s ->
              ( Desim.Timeseries.finish s.queue_depth ~until,
                Desim.Timeseries.finish s.occupancy ~until,
                Desim.Timeseries.finish s.latency ~until )
            | None -> ([], [], [])
          in
          {
            server;
            requests = sc.s_requests;
            busy_seconds = sc.s_busy.(0);
            utilization =
              (if until > 0.0 then sc.s_busy.(0) /. until else 0.0);
            queue_depth;
            occupancy;
            latency;
          })
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
        (Sketch.ranked t.sketch ~names:t.file_sets);
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
