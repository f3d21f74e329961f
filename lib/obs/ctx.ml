type t = {
  sinks : Sink.t array;
  metrics : Metrics.t option;
  telemetry : Telemetry.t option;
  (* Span ids are allocated per context; runs derive an isolated
     context (fresh counter) so ids are deterministic within a run and
     never contended across domains. *)
  span_counter : int ref;
  (* Guards sink emission only.  Concurrent runs (one per domain) share
     the sinks, and every sink carries internal state (channels, the
     chrome writer's comma/thread-name bookkeeping, the ring's cursor);
     one lock per context keeps each event atomic.  Contexts without
     sinks never touch it. *)
  emit_mutex : Mutex.t;
}

let null =
  {
    sinks = [||];
    metrics = None;
    telemetry = None;
    span_counter = ref 0;
    emit_mutex = Mutex.create ();
  }

let create ?(sinks = []) ?metrics ?telemetry () =
  {
    sinks = Array.of_list sinks;
    metrics;
    telemetry;
    span_counter = ref 0;
    emit_mutex = Mutex.create ();
  }

let tracing t = Array.length t.sinks > 0

let metrics t = t.metrics

let telemetry t = t.telemetry

(* A per-run context: same sinks (and lock), but fresh instruments — a
   new metrics registry when the parent collects metrics, a new (empty,
   same-shape) telemetry registry when the parent collects telemetry,
   and always a fresh span counter.  The runner isolates itself with
   this instead of resetting shared state, so that concurrent runs on
   separate domains never share mutable instruments and span ids are
   deterministic per run. *)
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

(* A plain loop and handler rather than [Fun.protect] and [Array.iter]:
   no closure is allocated per event. *)
let emit t e =
  if Array.length t.sinks > 0 then begin
    Mutex.lock t.emit_mutex;
    match
      for i = 0 to Array.length t.sinks - 1 do
        t.sinks.(i).Sink.emit e
      done
    with
    | () -> Mutex.unlock t.emit_mutex
    | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.unlock t.emit_mutex;
      Printexc.raise_with_backtrace ex bt
  end

let flush t =
  if Array.length t.sinks > 0 then
    Mutex.protect t.emit_mutex (fun () ->
        Array.iter (fun (s : Sink.t) -> s.flush ()) t.sinks)

let snapshot t = Option.map Metrics.snapshot t.metrics

let close t = Array.iter (fun (s : Sink.t) -> s.close ()) t.sinks
