(** Delegate election and the reconfiguration report protocol.

    At the end of every reconfiguration interval each server reports
    its observed latency to an elected delegate; the delegate computes
    a system-wide average and decides the next configuration.  The
    protocol is stateless on the delegate side (except for the optional
    divergent-tuning history, which the paper accepts losing on a
    delegate crash), so election is trivial: the lowest-id alive server
    serves as delegate. *)

(** What the delegate sees from one server in one interval. *)
type server_report = {
  server : Server_id.t;
  speed_hint : float;
  (** exposed for the prescient baseline only; ANU never reads it *)
  report : Server.report;
}

val elect : alive:Server_id.t list -> Server_id.t option

(** [collect cluster] gathers and resets each alive server's current
    latency window, in id order.  This is the fault-free fast path;
    under fault injection use {!collect_async}. *)
val collect : Cluster.t -> server_report list

(** What one reconfiguration round managed to gather once reports can
    be lost or delayed. *)
type round_outcome =
  | Round_complete of server_report list
      (** every alive server reported *)
  | Round_degraded of {
      reports : server_report list;  (** the quorum that made it *)
      missing : Server_id.t list;
    }
      (** some reports never arrived but a quorum did: the round
          averages over survivors only *)
  | Round_skipped of { missing : Server_id.t list }
      (** below quorum: tuning on so little data would be tuning on
          garbage, so the round decides nothing *)

(** [quorum ~alive] is the strict majority [(alive / 2) + 1]. *)
val quorum : alive:int -> int

(** [collect_async ?rng cluster ~timeout ~fate ~k] runs one report
    round over an unreliable channel.  Each alive server's window is
    snapshotted immediately (lost deliveries are retransmitted from
    the snapshot); [fate ~server ~attempt] decides each delivery
    attempt — [`Lost], or [`Deliver d] arriving [d] seconds after the
    attempt went out (a reply slower than the attempt's timeout window
    counts as silence and triggers the retry).  Attempts follow
    [timeout]'s exponential-backoff schedule; when
    [timeout.jitter > 0] and [rng] is given, each server retries on
    its own jittered schedule (one {!Desim.Rng.split} per server, in
    id order — byte-reproducible from the seed).  [k] fires on the
    virtual clock once every server has replied or exhausted its
    schedule: at the last arrival when all reported, at the last
    give-up (the nominal {!Desim.Timeout.deadline} when jitter-free)
    otherwise. *)
val collect_async :
  ?rng:Desim.Rng.t ->
  Cluster.t ->
  timeout:Desim.Timeout.policy ->
  fate:
    (server:Server_id.t -> attempt:int -> [ `Deliver of float | `Lost ]) ->
  k:(round_outcome -> unit) ->
  unit

(** [mean_latency reports] is the request-weighted mean latency across
    servers; servers that served nothing contribute nothing. *)
val mean_latency : server_report list -> float

(** [median_latency reports] is the median of per-server mean
    latencies over servers that served at least one request; [0.0]
    when none did. *)
val median_latency : server_report list -> float

(** [round_event cluster ~time ~round ~average ~regions reports] packs
    one reconfiguration round into a trace event: the elected
    delegate, every server's reported latency window plus its current
    queue depth, and the per-server region measures the round decided
    on ([regions] may be empty for policies without region
    geometry). *)
val round_event :
  Cluster.t ->
  time:float ->
  round:int ->
  average:float ->
  regions:(Server_id.t * float) list ->
  server_report list ->
  Obs.Event.t
