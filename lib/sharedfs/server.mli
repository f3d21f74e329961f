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

(** [submit t ~fs ~op ~base_demand ~tag] serves a metadata request: the
    effective demand is [base_demand] times the operation's factor times
    the cache multiplier for the file set.  [fs] is the request's
    interned file-set id (the server's hot path never hashes the name).
    [tag] identifies the job to the hooks and to {!fail}: the job's
    start is reported to the hook installed with {!set_start_hook} and
    its completion to the sink installed with {!set_sink}. *)
val submit :
  t -> fs:int -> op:Request.op -> base_demand:float -> tag:int -> unit

(** [set_sink t k] installs the completion sink of {!submit} jobs:
    [k ~tag ~latency] fires when the job finishes, with its queueing
    delay plus service time at this server.  The sink decides the
    request's full latency and passes it to {!record}. *)
val set_sink : t -> (tag:int -> latency:float -> unit) -> unit

(** [record t ~latency] counts a request this server completed, with
    its full latency (including any delay before it reached the
    server), in the report window, the time series and the server's
    instruments. *)
val record : t -> latency:float -> unit

(** [set_start_hook t f] installs the start hook of {!submit} jobs:
    [f ~tag ~service] fires when the job begins its [service]-second
    slot, which splits queueing delay from service time. *)
val set_start_hook : t -> (tag:int -> service:float -> unit) -> unit

(** [clear_hooks t] detaches the sink and the start hook, so the server
    no longer keeps what their closures hold. *)
val clear_hooks : t -> unit

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
