(** FIFO queueing station: the service model of one metadata server.

    Jobs carry a {e demand} expressed in speed-units x seconds; a
    station with speed [s] serves a demand [d] job in [d /. s] seconds
    of virtual time.  Jobs are served one at a time in arrival order
    (the paper's simulator uses the same first-in-first-out
    discipline).  A job is identified by its integer tag; its
    completion latency — queueing delay plus service time — is
    reported with that tag to the station-wide sink installed with
    {!set_sink}, so the station keeps no per-job closure.

    Speed changes take effect for jobs that start service after the
    change; the job on the floor finishes at its already-scheduled
    time.  A failed station stops serving; its queued jobs can be
    drained and re-routed by the caller. *)

type t

type job = { demand : float; tag : int; enqueued_at : float }

(** [create sim ~name ~speed] with [speed > 0]. *)
val create : Sim.t -> name:string -> speed:float -> t

val name : t -> string

val speed : t -> float

(** [set_speed t s] with [s > 0]; applies to subsequently started
    jobs. *)
val set_speed : t -> float -> unit

(** [submit_tagged t ~demand ~tag] enqueues a job.  Its completion
    is reported to the sink installed with {!set_sink} as
    [sink ~tag ~latency]; its start, to the hook installed with
    {!set_start_hook}.  A job interrupted by {!fail} is reported to
    neither again.  Raises [Invalid_argument] on non-positive demand,
    [Failure] if the station is failed, and [Failure] at completion
    time if no sink was installed. *)
val submit_tagged : t -> demand:float -> tag:int -> unit

(** [set_sink t f] installs the completion callback shared by every
    job.  At most one; a second call replaces the first. *)
val set_sink : t -> (tag:int -> latency:float -> unit) -> unit

(** [set_start_hook t f] installs the start callback shared by every
    job: [f ~tag ~service ~at] fires when a job reaches the head of the
    queue and begins its slot of [service.(at)] seconds (immediately,
    if the station is idle) — instrumentation uses it to split queueing
    delay from service time.  [service] is the station's own state, so
    the time is read unboxed, as a clock cell is; it holds the job's
    service time only during the call.  Without a hook, jobs start
    silently.  At most one; a second call replaces the first. *)
val set_start_hook :
  t -> (tag:int -> service:float array -> at:int -> unit) -> unit

(** [clear_hooks t] detaches the sink and the start hook, so the
    station no longer keeps whatever their closures hold.  A job
    completing afterwards raises [Failure], as before {!set_sink}. *)
val clear_hooks : t -> unit

(** [queue_length t] counts jobs waiting, excluding any job in
    service. *)
val queue_length : t -> int

(** [in_service t] reports whether a job is on the floor. *)
val in_service : t -> bool

(** [backlog_demand t] sums the demand of waiting jobs plus the full
    demand of the in-service job (the remaining-work approximation used
    when deciding flush costs). *)
val backlog_demand : t -> float

val completed : t -> int

(** [busy_time t] is the total virtual time spent serving jobs so
    far (excluding time on a job still in service). *)
val busy_time : t -> float

(** [utilization t ~until] is [busy_time /. until]; 0 for [until <= 0]. *)
val utilization : t -> until:float -> float

val failed : t -> bool

(** [fail t] marks the station down, cancels the in-service completion
    and returns every pending job (in-service first, then FIFO queue)
    so the caller can re-route them. *)
val fail : t -> job list

(** [recover t] brings a failed station back with an empty queue. *)
val recover : t -> unit
