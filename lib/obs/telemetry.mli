(** Per-entity windowed telemetry: the hotspot-detector foundation.

    Where {!Metrics} keeps global scalars and {!Event} records discrete
    transitions, this registry keeps {e per-entity time series} built on
    {!Desim.Timeseries}: per-server queue depth, occupancy
    (service-seconds started per window) and latency, plus a global
    request-rate series and a top-k heavy-hitter sketch over file sets.
    The cluster feeds it inline (three calls per request); everything
    is skipped with one branch when no registry is attached, preserving
    the zero-overhead-when-disabled contract.

    The heavy-hitter sketch is the space-saving algorithm: at most
    [top_k] tracked file sets, evicting the minimum-count entry (the
    smallest name among equal counts) on overflow and inheriting its
    count as a floor.  Each reported entry
    carries the [overestimate] bound it inherited, so a consumer can
    tell exact counts (overestimate 0) from inherited floors. *)

type config = {
  interval : float;  (** bucket width, virtual seconds *)
  top_k : int;  (** sketch capacity *)
}

val default_config : config

type t

(** [create ?interval ?top_k ()] — defaults: 60 s windows, top 10.
    Every observed server carries its own series. *)
val create : ?interval:float -> ?top_k:int -> unit -> t

(** [of_config c] — used by [Ctx.isolated] to derive a fresh, empty
    registry with the same shape for each run. *)
val of_config : config -> t

val config : t -> config

(** [bind t ~clock ~file_sets] names the time cell the observations
    read their time from ([Desim.Sim.time_cell] of the run's
    simulator) and the file sets an [fs] index names.  The cluster a
    registry observes binds it when it is created; until then the time
    reads 0, and an [fs] outside [file_sets] makes a tie in the sketch
    or {!snapshot} raise [Invalid_argument]. *)
val bind : t -> clock:float array -> file_sets:string array -> unit

(** The observations take unboxed inputs: the time is the bound
    clock's, the file set an index and the service time a cell, so a
    call allocates nothing once its server has state (the latency
    arrives boxed from the caller and is not copied).

    [observe_submit t ~fs] — one request for file set [fs] entered the
    system: bumps the request-rate series and the file-set sketch. *)
val observe_submit : t -> fs:int -> unit

(** [observe_service t ~server ~service ~at] — [server] started a
    service of [service.(at)] seconds now (a station's state cell, see
    {!Desim.Station.set_start_hook}): feeds its occupancy series and
    busy-time total. *)
val observe_service :
  t -> server:int -> service:float array -> at:int -> unit

(** [observe_complete t ~server ~queue_depth ~latency] — a request
    finished on [server]: feeds its queue-depth and latency series.
    Times must be non-decreasing per series (the simulator's event
    order guarantees this). *)
val observe_complete :
  t -> server:int -> queue_depth:int -> latency:float -> unit

type server_summary = {
  server : int;
  requests : int;
  busy_seconds : float;
  utilization : float;  (** busy_seconds / until *)
  queue_depth : Desim.Timeseries.point list;
  occupancy : Desim.Timeseries.point list;
  latency : Desim.Timeseries.point list;
}

type heavy_hitter = {
  file_set : string;
  count : int;  (** estimated frequency (upper bound) *)
  overestimate : int;  (** count may exceed truth by at most this *)
}

type snapshot = {
  interval : float;
  until : float;
  total_requests : int;
  servers : server_summary list;  (** sorted by server id *)
  request_rate : Desim.Timeseries.point list;
  heavy_hitters : heavy_hitter list;  (** count desc, then name asc *)
}

(** [snapshot t ~until] closes every series at [until] and freezes the
    registry into plain data.  Call once, at end of run. *)
val snapshot : t -> until:float -> snapshot

(** The machine-readable payload behind [--telemetry-json]. *)
val snapshot_to_json : snapshot -> Json.t

val pp_snapshot : Format.formatter -> snapshot -> unit
