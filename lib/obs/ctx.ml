type t = {
  sinks : Sink.t array;
  metrics : Metrics.t option;
  telemetry : Telemetry.t option;
  (* Span ids are allocated per context; runs derive an isolated
     context (fresh counter) so ids are deterministic within a run and
     never contended across domains. *)
  span_counter : int ref;
  (* The one domain that emits to the sinks: -1 until the first event,
     then that event's domain for good.  Sinks keep unsynchronised
     state (channels, the chrome writer's comma and thread-name
     bookkeeping, the ring's cursor, the JSONL ring's producer side),
     so a second emitting domain is refused rather than serialised;
     traced runs go one after another on the caller
     ([Figures.fan_out]).  Shared with the isolated contexts, like the
     sinks. *)
  emitter : int Atomic.t;
}

let null =
  {
    sinks = [||];
    metrics = None;
    telemetry = None;
    span_counter = ref 0;
    emitter = Atomic.make (-1);
  }

let create ?(sinks = []) ?metrics ?telemetry () =
  {
    sinks = Array.of_list sinks;
    metrics;
    telemetry;
    span_counter = ref 0;
    emitter = Atomic.make (-1);
  }

let tracing t = Array.length t.sinks > 0

let metrics t = t.metrics

let telemetry t = t.telemetry

(* A per-run context: same sinks (and emitting domain), but fresh
   instruments — a new metrics registry when the parent collects
   metrics, a new (empty, same-shape) telemetry registry when the
   parent collects telemetry, and always a fresh span counter.  The
   runner isolates itself with this instead of resetting shared state,
   so that untraced runs on separate domains never share mutable
   instruments and span ids are deterministic per run. *)
let isolated t =
  {
    t with
    metrics = Option.map (fun _ -> Metrics.create ()) t.metrics;
    telemetry =
      Option.map (fun tl -> Telemetry.of_config (Telemetry.config tl))
        t.telemetry;
    span_counter = ref 0;
  }

(* Only meaningful when [tracing]; call sites guard on it first.  Ids
   start at 1 so 0 can mean "no span" (see {!Span.none}). *)
let alloc_span t =
  incr t.span_counter;
  !(t.span_counter)

let claim t me =
  if not (Atomic.compare_and_set t.emitter (-1) me) then
    invalid_arg
      (Printf.sprintf
         "Obs.Ctx: domain %d emits to sinks that domain %d emits to" me
         (Atomic.get t.emitter))

let[@inline] check_emitter t =
  let me = (Domain.self () :> int) in
  if Atomic.get t.emitter <> me then claim t me

(* Plain loops rather than [Array.iter]: no closure per event. *)
let emit t e =
  if Array.length t.sinks > 0 then begin
    check_emitter t;
    for i = 0 to Array.length t.sinks - 1 do
      t.sinks.(i).Sink.emit e
    done
  end

let record t src kind ~id ~parent ~server ~fs ~client ~op =
  check_emitter t;
  for i = 0 to Array.length t.sinks - 1 do
    t.sinks.(i).Sink.record src kind ~id ~parent ~server ~fs ~client ~op
  done

let flush t =
  if Array.length t.sinks > 0 then begin
    check_emitter t;
    Array.iter (fun (s : Sink.t) -> s.flush ()) t.sinks
  end

let snapshot t = Option.map Metrics.snapshot t.metrics

let close t = Array.iter (fun (s : Sink.t) -> s.close ()) t.sinks
