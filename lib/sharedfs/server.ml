type report = { mean_latency : float; max_latency : float; requests : int }

(* Pre-resolved metric handles, so the hot path never goes through the
   registry's hash table. *)
type instruments = {
  queue_depth : Obs.Metrics.Gauge.g;
  served : Obs.Metrics.Counter.c;
  latency_hist : Obs.Metrics.Histogram.h;
}

type t = {
  id : Server_id.t;
  station : Desim.Station.t;
  cache : Cache.t;
  sim : Desim.Sim.t;
  clockc : float array; (* Sim.time_cell: unboxed clock reads in observe *)
  window : Desim.Welford.t;
  series : Desim.Timeseries.t;
  mutable next_tag : int;
  instruments : instruments option;
}

let create sim ~id ~speed ?cache_config ~series_interval
    ?(obs = Obs.Ctx.null) () =
  let instruments =
    Option.map
      (fun m ->
        let n = Server_id.to_int id in
        {
          queue_depth =
            Obs.Metrics.gauge m (Printf.sprintf "server.%d.queue_depth" n);
          served = Obs.Metrics.counter m (Printf.sprintf "server.%d.requests" n);
          latency_hist =
            Obs.Metrics.histogram m (Printf.sprintf "server.%d.latency" n);
        })
      (Obs.Ctx.metrics obs)
  in
  {
    id;
    station =
      Desim.Station.create sim
        ~name:(Format.asprintf "%a" Server_id.pp id)
        ~speed;
    cache = Cache.create ?config:cache_config ();
    clockc = Desim.Sim.time_cell sim;
    sim;
    window = Desim.Welford.create ();
    series = Desim.Timeseries.create ~interval:series_interval;
    next_tag = 0;
    instruments;
  }

let id t = t.id

let speed t = Desim.Station.speed t.station

let set_speed t s = Desim.Station.set_speed t.station s

let observe t ~latency =
  Desim.Welford.add t.window latency;
  Desim.Timeseries.observe t.series ~time:t.clockc.(0) latency;
  match t.instruments with
  | None -> ()
  | Some i ->
    Obs.Metrics.Counter.incr i.served;
    Obs.Metrics.Histogram.observe i.latency_hist latency;
    Obs.Metrics.Gauge.set i.queue_depth
      (float_of_int (Desim.Station.queue_length t.station))

(* Allocation-free submission: same demand formula as [submit], but no
   per-request completion closure — the job's completion is reported to
   the station sink installed by [set_stream_sink], identified by
   [tag].  The cluster uses the file-set id as the tag for plain
   requests (a completion only needs the set for accounting) and a
   disjoint tag range for lock operations that must rendezvous with
   per-request state. *)
let submit_stream t ~fs ~op ~base_demand ~tag =
  let multiplier =
    Cache.access t.cache ~fs ~dirties:(Request.dirties_cache op)
  in
  let demand = base_demand *. Request.demand_factor op *. multiplier in
  Desim.Station.submit_tagged t.station ~demand ~tag

(* The sink observes first (exactly where the legacy closure observed)
   and then hands the completion to the cluster's dispatcher. *)
let set_stream_sink t k =
  Desim.Station.set_sink t.station (fun ~tag ~latency ->
      observe t ~latency;
      k ~tag ~latency)

let submit t ~fs ~base_demand ?tag ?(extra_latency = 0.0) ?on_start req
    ~on_complete =
  let multiplier =
    Cache.access t.cache ~fs ~dirties:(Request.dirties_cache req.Request.op)
  in
  let demand =
    base_demand *. Request.demand_factor req.Request.op *. multiplier
  in
  let tag =
    match tag with
    | Some tag -> tag
    | None ->
      let tag = t.next_tag in
      t.next_tag <- tag + 1;
      tag
  in
  Desim.Station.submit ?on_start t.station ~demand ~tag
    ~on_complete:(fun ~latency ->
      let latency = latency +. extra_latency in
      observe t ~latency;
      on_complete ~latency);
  match t.instruments with
  | None -> ()
  | Some i ->
    Obs.Metrics.Gauge.set i.queue_depth
      (float_of_int (Desim.Station.queue_length t.station))

let queue_length t = Desim.Station.queue_length t.station

let in_service t = Desim.Station.in_service t.station

let completed t = Desim.Station.completed t.station

let utilization t ~until = Desim.Station.utilization t.station ~until

let report_of_window w =
  let requests = Desim.Welford.count w in
  {
    mean_latency = Desim.Welford.mean w;
    max_latency = (if requests = 0 then 0.0 else Desim.Welford.max_value w);
    requests;
  }

let take_report t =
  let r = report_of_window t.window in
  Desim.Welford.reset t.window;
  r

let peek_report t = report_of_window t.window

let series t ~until = Desim.Timeseries.finish t.series ~until

let cache t = t.cache

let gain_file_set t ~fs ~cold =
  if cold then Cache.install_cold t.cache ~fs
  else Cache.install_warm t.cache ~fs

let shed_file_set t ~fs = Cache.evict t.cache ~fs

let failed t = Desim.Station.failed t.station

let fail t =
  let jobs = Desim.Station.fail t.station in
  List.map (fun j -> j.Desim.Station.tag) jobs

let recover t = Desim.Station.recover t.station
