(** One metadata server: a queueing station plus cache state and the
    latency monitoring the delegate consumes.

    Each server serves metadata requests FIFO at its own speed (the
    heterogeneity under study), warms and dirties its cache as it
    serves, and accumulates two views of its latencies: a rolling
    window that is reported to the delegate at the end of every
    reconfiguration interval, and a full time series for plots. *)

(** What a server reports to the delegate for the last interval. *)
type report = {
  mean_latency : float;  (** 0 when the server served nothing *)
  max_latency : float;
  requests : int;
}

type t

(** [create sim ~id ~speed ?cache_config ~series_interval ?obs ()]
    builds a server.  When [obs] carries a metrics registry the server
    registers and maintains a [server.N.queue_depth] gauge, a
    [server.N.requests] counter and a [server.N.latency] histogram;
    with the default {!Obs.Ctx.null} the per-request overhead is one
    branch. *)
val create :
  Desim.Sim.t ->
  id:Server_id.t ->
  speed:float ->
  ?cache_config:Cache.config ->
  series_interval:float ->
  ?obs:Obs.Ctx.t ->
  unit ->
  t

val id : t -> Server_id.t

val speed : t -> float

(** [set_speed t s] models a hardware upgrade/downgrade; affects jobs
    that start service afterwards. *)
val set_speed : t -> float -> unit

(** [submit t ~fs ~base_demand ?tag ?extra_latency req ~on_complete]
    serves a metadata request: the effective demand is [base_demand]
    times the request's operation factor times the cache multiplier
    for the file set.  [fs] is the request's interned file-set id (the
    server's hot path never hashes the name).  [tag] identifies the
    job to {!fail}; defaults to an internal counter.  [extra_latency]
    is delay already suffered before reaching this server (e.g.
    buffering during a file-set move) and is added to the recorded and
    reported latency.  [on_start ~service] fires when the job begins
    service (instrumentation splits queueing delay from service time
    with it).  Latency is recorded in the window and series before
    [on_complete] runs. *)
val submit :
  t ->
  fs:int ->
  base_demand:float ->
  ?tag:int ->
  ?extra_latency:float ->
  ?on_start:(service:float -> unit) ->
  Request.t ->
  on_complete:(latency:float -> unit) ->
  unit

(** [submit_stream t ~fs ~op ~base_demand ~tag] is the allocation-free
    counterpart of {!submit}: the same demand formula (operation factor
    times cache multiplier), but no per-request closure — completion is
    reported to the sink installed with {!set_stream_sink}, identified
    by [tag].  No [extra_latency], no [on_start], no per-request
    instruments update: callers gate on those features being off. *)
val submit_stream :
  t -> fs:int -> op:Request.op -> base_demand:float -> tag:int -> unit

(** [set_stream_sink t k] installs the completion sink used by
    {!submit_stream} jobs.  The server records the latency in its
    window and series (exactly as {!submit} does) before calling
    [k ~tag ~latency]. *)
val set_stream_sink : t -> (tag:int -> latency:float -> unit) -> unit

val queue_length : t -> int

(** [in_service t] reports whether a request is being served, i.e.
    whether a request submitted now would wait in the queue. *)
val in_service : t -> bool

val completed : t -> int

val utilization : t -> until:float -> float

(** [take_report t] returns the current window and resets it. *)
val take_report : t -> report

(** [peek_report t] returns the current window without resetting. *)
val peek_report : t -> report

(** [series t ~until] closes the full latency time series. *)
val series : t -> until:float -> Desim.Timeseries.point list

val cache : t -> Cache.t

(** [gain_file_set t ~fs ~cold] installs cache state for an acquired
    set. *)
val gain_file_set : t -> fs:int -> cold:bool -> unit

(** [shed_file_set t ~fs] evicts the set, returning dirty bytes to
    flush. *)
val shed_file_set : t -> fs:int -> int

val failed : t -> bool

(** [fail t] takes the server down, returning the interrupted jobs'
    tags (newest service first, then FIFO queue order). *)
val fail : t -> int list

val recover : t -> unit
