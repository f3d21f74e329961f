type config = { interval : float; top_k : int }

let default_config = { interval = 60.0; top_k = 10 }

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

(* Per-server state sits in an array indexed by server id, grown on
   demand. *)
type t = {
  config : config;
  mutable clock : float array;  (* the bound time cell *)
  mutable file_sets : string array;  (* the bound file-set names *)
  mutable servers : server_state option array;
  request_rate : Desim.Timeseries.t;
  sketch : Sketch.t;
  mutable total_requests : int;
}

let of_config config =
  if config.interval <= 0.0 then
    invalid_arg "Telemetry.create: interval must be positive";
  {
    config;
    clock = [| 0.0 |];
    file_sets = [||];
    servers = [||];
    request_rate = Desim.Timeseries.create ~interval:config.interval;
    sketch = Sketch.create ~capacity:(max 1 config.top_k);
    total_requests = 0;
  }

let create ?(interval = default_config.interval)
    ?(top_k = default_config.top_k) () =
  of_config { interval; top_k }

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

let server_state t server =
  let n = Array.length t.servers in
  if server >= n then begin
    let grown = Array.make (max (server + 1) (2 * n)) None in
    Array.blit t.servers 0 grown 0 n;
    t.servers <- grown
  end;
  match t.servers.(server) with
  | Some s -> s
  | None ->
    let s = fresh_state t in
    t.servers.(server) <- Some s;
    s

let observe_submit t ~fs =
  t.total_requests <- t.total_requests + 1;
  Desim.Timeseries.observe_int t.request_rate ~clock:t.clock 1;
  Sketch.observe t.sketch ~names:t.file_sets fs

let observe_service t ~server ~service ~at =
  let s = server_state t server in
  s.busy_seconds.(0) <- s.busy_seconds.(0) +. service.(at);
  Desim.Timeseries.observe_at s.occupancy ~clock:t.clock service at

let observe_complete t ~server ~queue_depth ~latency =
  let s = server_state t server in
  s.requests <- s.requests + 1;
  Desim.Timeseries.observe_int s.queue_depth ~clock:t.clock queue_depth;
  Desim.Timeseries.observe s.latency ~clock:t.clock latency

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
