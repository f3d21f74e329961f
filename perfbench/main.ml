(* The repository benchmark, one workload per invocation:

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   --trace 0 measures the end-to-end metrics: an untimed warm-up
   repetition, then back-to-back repetitions for S seconds; timings come
   from the fastest repetition, counts from the first timed one.
   --trace 1 is a separate run giving the per-layer metrics: untraced
   repetitions, then repetitions with the benchmark's span recorder
   around every layer boundary it can see from outside the library,
   then the layer probes, each on the one input that loads its layer.
   The spans are written to .perfbench-out/<workload>.spans.jsonl when
   the run ends.

   Every repetition is output-checked (request conservation, no
   invariant violation, one deterministic fingerprint across all
   repetitions, traced or not).  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}; the exit code is 1 when any
   check failed and 2 on a usage error. *)

module W = Workloads
module Runner = Experiments.Runner

let now = Spans.now

let secs ns = float_of_int ns *. 1e-9

let since t0 = secs (now () - t0)

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)

type rep = {
  wall : float;  (* seconds from building the input to the call's return *)
  input : float;  (* seconds building the input and the observer *)
  setup : float;  (* seconds before the first operation could run *)
  ops : int;
  failed_ops : int;
  words : float;  (* minor + direct-major words allocated *)
  minor : float;
  majors : int;
  fingerprint : string;
  problems : string list;
  result : Runner.result;
  cluster_build : float;  (* call start -> on_cluster, seconds *)
  cluster : Sharedfs.Cluster.t option;
  obs_events : int;  (* counted only when a span recorder wraps the sink *)
  obs_bytes : int;
}

let devnull = lazy (open_out_bin "/dev/null")

(* The [observed] workload's observer: JSONL to /dev/null plus metrics
   and telemetry registries.  Under a span recorder the sink is wrapped
   to count and time every emit.  [finish] closes the context and
   returns (events, bytes written). *)
let observer ?sp () =
  let oc = Lazy.force devnull in
  let base = Obs.Sink.jsonl_channel oc in
  let events = ref 0 in
  let sink =
    match sp with
    | None -> base
    | Some sp ->
      let id = Spans.intern sp "obs.Sink.emit" in
      {
        base with
        Obs.Sink.emit =
          (fun e ->
            incr events;
            Spans.with_id sp id (fun () -> base.Obs.Sink.emit e));
      }
  in
  let ctx =
    Obs.Ctx.create ~sinks:[ sink ] ~metrics:(Obs.Metrics.create ())
      ~telemetry:(Obs.Telemetry.create ()) ()
  in
  let pos0 = pos_out oc in
  let finish () =
    Obs.Ctx.close ctx;
    (!events, pos_out oc - pos0)
  in
  (ctx, finish)

(* The same stream, re-wrapped so that every batch fill (fast path) or
   item pull (general path) is a span. *)
let traced_stream sp stream =
  let fill = Spans.intern sp "workload.Stream.fill" in
  let next = Spans.intern sp "workload.Stream.next" in
  let fresh () =
    let c = Workload.Stream.start stream in
    fun () -> Spans.with_id sp next c
  in
  let fresh_batch =
    match Workload.Stream.start_batch stream with
    | None -> None
    | Some _ ->
      Some
        (fun () ->
          let b = Option.get (Workload.Stream.start_batch stream) in
          fun cols -> Spans.with_id sp fill (fun () -> b cols))
  in
  Workload.Stream.make ?fresh_batch
    ~duration:(Workload.Stream.duration stream)
    ~total:(Workload.Stream.total stream)
    ~file_sets:(Workload.Stream.file_sets stream)
    ~fresh ()

let run_fingerprint (r : Runner.result) =
  Printf.sprintf "events=%d submitted=%d completed=%d moves=%d rounds=%d mean=%Lx p95=%Lx"
    r.sim_events r.submitted r.completed (List.length r.moves) r.reconfig_rounds
    (Int64.bits_of_float r.overall_mean)
    (Int64.bits_of_float r.overall_p95)

let run_problems (r : Runner.result) =
  (if r.completed <> r.submitted then
     [ Printf.sprintf "conservation: completed %d <> submitted %d" r.completed
         r.submitted ]
   else [])
  @
  match r.violations with
  | [] -> []
  | (t, what) :: _ as vs ->
    [ Printf.sprintf "%d invariant violation(s), first at t=%.3f: %s"
        (List.length vs) t what ]

(* One [run_stream] of the shape [make] builds; [observed] attaches the
   observer.  The input is built inside the repetition, so its set-up
   covers building the input and the observer as well as the call's
   time outside the engine: work moved out of the engine into either
   shows there. *)
let run_rep ?sp ?(observed = false) (make : unit -> W.shape) =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let shape = make () in
  let obs, finish_obs =
    if observed then
      let ctx, finish = observer ?sp () in
      (Some ctx, finish)
    else (None, fun () -> (0, 0))
  in
  let stream =
    match sp with None -> shape.stream | Some sp -> traced_stream sp shape.stream
  in
  let input = since t0 in
  let cluster = ref None and built = ref 0 in
  let t_call = now () in
  let on_cluster c =
    built := now ();
    cluster := Some c;
    Option.iter
      (fun sp -> Spans.record sp "sharedfs.Cluster.create" ~start:t_call ~stop:!built)
      sp
  in
  let call () =
    Runner.run_stream shape.scenario shape.spec ~stream ?obs
      ?faults:shape.faults ~on_cluster ()
  in
  let r =
    match sp with
    | None -> call ()
    | Some sp -> Spans.with_ sp "experiments.Runner.run_stream" call
  in
  let wall = since t0 in
  let g1 = Gc.quick_stat () in
  let obs_events, obs_bytes = finish_obs () in
  (* Perf_json's fold gives words per engine event; scale back to the
     run's total so the per-operation figure divides one exact count. *)
  let fm = Perf_json.figure_metrics ~gc:(g0, g1) ~id:"run" ~wall_seconds:wall [ r ] in
  let events = float_of_int fm.Perf_json.events_fired in
  {
    wall;
    input;
    setup = wall -. r.sim_wall_seconds;
    ops = r.submitted;
    failed_ops = r.submitted - r.completed + List.length r.violations;
    words = fm.Perf_json.gc_allocated_words_per_event *. events;
    minor = fm.Perf_json.gc_minor_words_per_event *. events;
    majors = fm.Perf_json.gc_major_collections;
    fingerprint = run_fingerprint r;
    problems = run_problems r;
    result = r;
    cluster_build = secs (!built - t_call);
    cluster = !cluster;
    obs_events;
    obs_bytes;
  }

let workload_rep ?sp (w : W.t) ~seed () =
  run_rep ?sp ~observed:w.observed (fun () -> w.shape ~seed)

(* An untimed warm-up, then at least [min_reps] repetitions and more
   while [seconds] last.  Each starts from a full major collection, as a
   fresh process would, so garbage of earlier repetitions neither
   inflates the peak RSS nor taxes later timings.  Returns (warm-up,
   timed repetitions). *)
let repeat ?(after_first = ignore) ?(max_reps = max_int) ~seconds ~min_reps rep =
  let rep () =
    Gc.full_major ();
    rep ()
  in
  let warm = rep () in
  let t0 = now () in
  let rec go acc n =
    if n >= max_reps || (n >= min_reps && since t0 >= seconds) then List.rev acc
    else
      let r = rep () in
      if n = 0 then after_first ();
      go (r :: acc) (n + 1)
  in
  (warm, go [] 0)

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable fingerprint : string option;  (* the workload's *)
}

let ledger () = { attempted = 0; failed = 0; problems = []; fingerprint = None }

let problem l msg =
  l.failed <- l.failed + 1;
  l.problems <- msg :: l.problems

(* Count a run and its own checks; [label] names it. *)
let count l ~label (r : rep) =
  l.attempted <- l.attempted + r.ops;
  l.failed <- l.failed + r.failed_ops;
  l.problems <- List.map (fun p -> label ^ ": " ^ p) r.problems @ l.problems

let same_fingerprint l ~label fp (r : rep) =
  if fp <> r.fingerprint then
    problem l (Printf.sprintf "%s: fingerprint %s differs from %s" label r.fingerprint fp)

(* A repetition of the workload: counted, and its fingerprint must be
   the one every other repetition of the workload has. *)
let check l ~label r =
  count l ~label r;
  match l.fingerprint with
  | None -> l.fingerprint <- Some r.fingerprint
  | Some fp -> same_fingerprint l ~label fp r

let check_all l ~label (warm, reps) =
  check l ~label:(label ^ " warm-up") warm;
  List.iteri (fun i r -> check l ~label:(Printf.sprintf "%s %d" label (i + 1)) r) reps

let min_by f l = List.fold_left (fun m x -> Float.min m (f x)) infinity l

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (--trace 0)                                      *)

(* Operations per second of the fastest repetition, each timed over its
   own wall time less its own set-up. *)
let ops_per_s reps =
  List.fold_left
    (fun best r -> Float.max best (float_of_int r.ops /. (r.wall -. r.setup)))
    0.0 reps

(* Timings from the fastest repetition, counts from the first; the peak
   RSS as it stood after the first timed repetition, so that it does not
   depend on how many repetitions the time allowed. *)
let end_to_end reps ~rss_kb =
  let first = List.hd reps in
  [
    m "setup_s" "s" (min_by (fun r -> r.setup) reps);
    m "ops_per_s" "1/s" (ops_per_s reps);
    m "peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.0);
    m "alloc_words_per_op" "words" (first.words /. float_of_int first.ops);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (--trace 1)                                       *)

(* Fastest of repeated calls: at least one, more while [budget] seconds
   last. *)
let fastest ?(budget = 0.2) f =
  let t0 = now () in
  let best = ref infinity and n = ref 0 in
  while !n = 0 || (since t0 < budget && !n < 10_000) do
    let t = now () in
    f ();
    best := Float.min !best (since t);
    incr n
  done;
  !best

let anu_create (s : W.shape) () =
  Placement.Anu.create ?topology:s.scenario.topology
    ~family:(Hashlib.Hash_family.create ~seed:s.scenario.hash_seed)
    ~servers:(List.map (fun (id, _) -> Sharedfs.Server_id.of_int id) s.scenario.servers)
    ()

(* Addressing over the workload's catalog on a fresh instance per pass:
   (fastest ns per lookup, probes per lookup). *)
let locate_probe (s : W.shape) =
  let names = Workload.Stream.file_sets s.stream in
  let lookups = List.length names in
  let probes = ref 0 in
  let best = ref infinity in
  let t0 = now () in
  while since t0 < 0.2 || !best = infinity do
    let anu = anu_create s () in
    probes := 0;
    let t = now () in
    List.iter
      (fun name ->
        let _, rounds = Placement.Anu.locate_with_rounds anu name in
        probes := !probes + rounds)
      names;
    best := Float.min !best (since t)
  done;
  (!best *. 1e9 /. float_of_int lookups, float_of_int !probes /. float_of_int lookups)

(* Drain the stream's cursor with no simulation: the batch cursor when
   the stream has one (what the fast path pulls), else the item cursor. *)
let drain (s : W.shape) () =
  match Workload.Stream.start_batch s.stream with
  | Some b ->
    let cols = Workload.Stream.make_cols 64 in
    while b cols > 0 do
      ()
    done
  | None ->
    let c = Workload.Stream.start s.stream in
    while Option.is_some (c ()) do
      ()
    done

(* Crash-point probes over the explore shape, one at a time: the
   enumeration run lists the write points, [explore_budget] probes are
   sampled exactly as the sweep samples them, then each probe is a
   [run_kill_restart] armed with [Fault.Explorer.arm].  Returns (write
   points, probes before sampling, per-probe wall seconds, failed
   probes). *)
let explore_probes ~seed (s : W.shape) =
  let faults = Option.get s.faults in
  let points = ref (fun () -> []) in
  (match
     Runner.run_kill_restart s.scenario s.spec ~stream:s.stream ~faults
       ~arm:(fun disk -> points := Fault.Explorer.record disk)
       ()
   with
  | Runner.Ran _ -> ()
  | Runner.Recovered _ -> failwith "enumeration run crashed");
  let points = !points () in
  let all = Fault.Explorer.probes points in
  let failed = ref 0 in
  let times =
    List.map
      (fun probe ->
        let t = now () in
        (match
           Runner.run_kill_restart s.scenario s.spec ~stream:s.stream ~faults
             ~arm:(fun disk -> Fault.Explorer.arm disk probe)
             ()
         with
        | Runner.Ran _ -> ()
        | Runner.Recovered rc ->
          let r = rc.Runner.resumed in
          if r.violations <> [] || (not rc.fsck.clean) || r.completed <> r.submitted
          then incr failed);
        since t)
      (Fault.Explorer.sample ~seed ~budget:W.explore_budget all)
  in
  (List.length points, List.length all, times, !failed)

(* Median and the highest percentile with at least ten samples beyond
   it (None below eleven samples). *)
let percentiles times =
  let a = Array.of_list times in
  Array.sort compare a;
  let n = Array.length a in
  let p50 = if n = 0 then nan else a.(n / 2) in
  let tail = if n < 11 then None else Some (a.(n - 11), float_of_int (n - 10) /. float_of_int n) in
  (p50, tail)

(* Observability, on the observed workload's input: that workload's own
   traced repetitions, else one observed pass over its input, checked
   against the same input untraced.  Returns (emits, bytes, requests,
   ns inside emit). *)
let obs_layer (w : W.t) ~seed ~reps_sp ~traced_reps ~pass_sp l =
  let reps, sp =
    if w.observed then (traced_reps, reps_sp)
    else begin
      let input () = W.observed_shape ~seed in
      let plain = run_rep ~observed:true input in
      let traced =
        Spans.with_ pass_sp "rep" (fun () -> run_rep ~sp:pass_sp ~observed:true input)
      in
      count l ~label:"observed input untraced" plain;
      count l ~label:"observed input traced" traced;
      same_fingerprint l ~label:"observed input traced" plain.fingerprint traced;
      ([ traced ], pass_sp)
    end
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  ( sum (fun r -> r.obs_events),
    sum (fun r -> r.obs_bytes),
    sum (fun r -> r.result.submitted),
    Spans.total_ns sp "obs.Sink.emit" )

(* The 10,000-server layers: one traced run (its set-up, cluster build
   and rounds), then standalone calls at the same n.  The invariant
   checks pair the run's cluster with a freshly built policy, since the
   runner does not hand back the run's own, so they time the checks on
   a real 10,000-server cluster rather than audit the run's final
   placement. *)
let scale_layer ~seed ~run_sp ~probes l =
  let probe name f = Spans.with_ probes name f in
  let make () = W.scale10k ~seed in
  let big = Spans.with_ run_sp "rep" (fun () -> run_rep ~sp:run_sp make) in
  count l ~label:"10,000-server run" big;
  let shape = make () in
  let cluster = Option.get big.cluster in
  let anu_create_s =
    probe "placement.Anu.create" (fun () -> fastest (fun () -> ignore (anu_create shape ())))
  in
  let rounds =
    probe "placement.Anu.rebalance" (fun () ->
        Perf_json.scale_point ~n:10_000 ~hold_rounds:5 ~tune_rounds:2)
  in
  (* Read-only first: the full check below repairs the ledger. *)
  if not (Sharedfs.Cluster.fsck ~repair:false cluster).clean then
    problem l "10,000-server run: fsck after the run is not clean";
  let policy =
    Experiments.Scenario.make_policy shape.spec ~scenario:shape.scenario
      ~file_sets:(Workload.Stream.file_sets shape.stream)
  in
  let invariants_s =
    probe "fault.Invariants.check" (fun () ->
        fastest (fun () ->
            match Fault.Invariants.check ~cluster ~policy () with
            | [] -> ()
            | v :: _ -> problem l ("10,000-server invariants: " ^ v.what)))
  in
  let acc = Fault.Invariants.Acc.create ~cluster ~policy () in
  let acc_s =
    probe "fault.Invariants.Acc.check" (fun () ->
        fastest (fun () -> ignore (Fault.Invariants.Acc.check acc ~cluster)))
  in
  [
    m "runner.nonengine_s" "s" (big.setup -. big.input);
    m "sharedfs.cluster_build_s" "s" big.cluster_build;
    m "scale10k.rounds_per_s" "1/s"
      (float_of_int big.result.reconfig_rounds /. big.result.sim_wall_seconds);
    m "placement.anu_create_s" "s" anu_create_s;
    m "placement.round_hold_ms" "ms" (rounds.Perf_json.ns_per_round *. 1e-6);
    m "placement.round_retune_ms" "ms" (rounds.Perf_json.ns_per_reconfig *. 1e-6);
    m "fault.invariants_ms" "ms" (invariants_s *. 1e3);
    m "fault.invariants_acc_ms" "ms" (acc_s *. 1e3);
  ]

(* The shared-disk write and recovery layers, on the explore shape:
   crash-point probes one at a time, then a read-only fsck of the
   ledger a fault-plan run of the shape leaves behind. *)
let explore_layer ~seed ~probes l =
  let probe name f = Spans.with_ probes name f in
  let shape = W.explore_shape ~seed in
  let write_points, probes_total, times, failed =
    probe "fault.Explorer.probes" (fun () -> explore_probes ~seed shape)
  in
  l.attempted <- l.attempted + List.length times;
  if failed > 0 then problem l (Printf.sprintf "%d crash-point probe(s) failed" failed);
  (* The rebuilt shape must be the sweep's own. *)
  let rpt = Experiments.Explore.sweep ~wide:true ~budget:0 ~seed () in
  if rpt.write_points <> write_points || rpt.probes_total <> probes_total then
    problem l
      (Printf.sprintf "explore shape drifted: %d/%d write points/probes vs sweep %d/%d"
         write_points probes_total rpt.write_points rpt.probes_total);
  let run = run_rep (fun () -> shape) in
  count l ~label:"explore shape run" run;
  let cluster = Option.get run.cluster in
  let fsck = Sharedfs.Cluster.fsck ~repair:false cluster in
  if not fsck.clean then problem l "explore shape run: fsck after the run is not clean";
  let fsck_s =
    probe "sharedfs.Cluster.fsck" (fun () ->
        fastest (fun () -> ignore (Sharedfs.Cluster.fsck ~repair:false cluster)))
  in
  let p50, tail = percentiles times in
  let tail_s, tail_p = Option.value ~default:(nan, nan) tail in
  let metrics =
    [
      m "sharedfs.fsck_ms" "ms" (fsck_s *. 1e3);
      m "sharedfs.ledger_records" "records" (float_of_int fsck.records);
      m "fault.write_points" "points" (float_of_int write_points);
      m "fault.probes" "probes" (float_of_int (List.length times));
      m "fault.probe_ms_p50" "ms" (p50 *. 1e3);
      m "fault.probe_ms_tail" "ms" (tail_s *. 1e3);
    ]
  in
  let note =
    Printf.sprintf "fault.probe_ms_tail is the p%.1f of %d probes (sampled from %d)"
      (tail_p *. 100.0) (List.length times) probes_total
  in
  (metrics, note)

(* Span recorders, one per section of the traced run. *)
type recorders = { reps : Spans.t; obs_pass : Spans.t; scale_run : Spans.t; probes : Spans.t }

let traced (w : W.t) ~seed ~seconds l =
  let sp =
    { reps = Spans.create (); obs_pass = Spans.create (); scale_run = Spans.create ();
      probes = Spans.create () }
  in
  let half = seconds /. 2.0 in
  (* A: untraced workload repetitions, exactly as in --trace 0; then B:
     the same repetitions under the span recorder, capped to bound the
     spans held in memory. *)
  let plain = repeat ~seconds:half ~min_reps:2 (workload_rep w ~seed) in
  check_all l ~label:"untraced" plain;
  let traced =
    repeat ~seconds:half ~min_reps:2 ~max_reps:5 (fun () ->
        Spans.with_ sp.reps "rep" (workload_rep ~sp:sp.reps w ~seed))
  in
  check_all l ~label:"traced" traced;
  let plain_reps = snd plain and traced_reps = snd traced in
  let first = List.hd plain_reps in
  let r0 = first.result in
  let requests = r0.submitted in
  let per_req x = float_of_int x /. float_of_int requests in
  let in_stream_ns =
    Spans.total_ns sp.reps "workload.Stream.fill" + Spans.total_ns sp.reps "workload.Stream.next"
  in
  (* C: the layer probes, each under its own span. *)
  let probe name f = Spans.with_ sp.probes name f in
  let shape = w.shape ~seed in
  let drain_s = probe "workload.drain" (fun () -> fastest ~budget:0.5 (drain shape)) in
  let locate_ns, probes_per_lookup = probe "placement.Anu.locate" (fun () -> locate_probe shape) in
  let obs_events, obs_bytes, obs_requests, emit_ns =
    obs_layer w ~seed ~reps_sp:sp.reps ~traced_reps ~pass_sp:sp.obs_pass l
  in
  let scale = scale_layer ~seed ~run_sp:sp.scale_run ~probes:sp.probes l in
  let explore, explore_note = explore_layer ~seed ~probes:sp.probes l in
  let metrics =
    [
      m "workload.fill_ns_per_req" "ns"
        (float_of_int in_stream_ns /. float_of_int (List.length traced_reps * requests));
      m "workload.drain_ns_per_req" "ns"
        (drain_s *. 1e9 /. float_of_int (Workload.Stream.total shape.stream));
      m "desim.events_per_req" "events" (per_req r0.sim_events);
      m "desim.engine_ns_per_event" "ns"
        (min_by (fun r -> r.result.sim_wall_seconds *. 1e9 /. float_of_int r.result.sim_events)
           plain_reps);
      m "desim.peak_pending" "events" (float_of_int r0.sim_peak_pending);
      m "placement.locate_ns" "ns" locate_ns;
      m "placement.probes_per_lookup" "probes" probes_per_lookup;
      m "obs.events_per_req" "events" (float_of_int obs_events /. float_of_int obs_requests);
      m "obs.bytes_per_req" "B" (float_of_int obs_bytes /. float_of_int obs_requests);
      m "obs.sink_ns_per_event" "ns" (float_of_int emit_ns /. float_of_int obs_events);
      m "gc.minor_words_per_op" "words" (first.minor /. float_of_int first.ops);
      m "gc.major_collections" "count" (float_of_int first.majors);
      m "outcome.sim_latency_mean_s" "virtual_s" r0.overall_mean;
      m "outcome.sim_latency_p95_s" "virtual_s" r0.overall_p95;
      m "outcome.moves" "count" (float_of_int (List.length r0.moves));
      m "trace.overhead_frac" "ratio" (1.0 -. (ops_per_s traced_reps /. ops_per_s plain_reps));
    ]
    @ scale @ explore
  in
  let notes =
    [
      explore_note;
      Printf.sprintf "obs.* measured over %d traced requests of the observed workload's input"
        obs_requests;
    ]
  in
  let sections =
    [
      ("traced workload repetitions", sp.reps);
      ("observability pass", sp.obs_pass);
      ("10,000-server run", sp.scale_run);
      ("layer probes", sp.probes);
    ]
  in
  (metrics, notes, sections)

(* "Where the time goes": per section, each span name's count, total and
   self time, and self time as a share of the section's root spans. *)
let pp_where sections =
  List.iter
    (fun (label, sp) ->
      match Spans.summary sp with
      | [] -> ()
      | rows ->
        let roots = Spans.roots_ns sp in
        Printf.printf "where the time goes: %s (%.3f s)\n" label (secs roots);
        Printf.printf "  %-34s %9s %12s %12s %7s\n" "span" "count" "total_ms" "self_ms" "self%";
        List.iter
          (fun (name, count, total, self) ->
            Printf.printf "  %-34s %9d %12.3f %12.3f %6.1f%%\n" name count
              (float_of_int total *. 1e-6) (float_of_int self *. 1e-6)
              (100.0 *. float_of_int self /. float_of_int roots))
          rows)
    sections

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let print_result l metrics =
  List.iter
    (fun { name; value; unit_ } -> Printf.printf "  %-40s %18.6f %s\n" name value unit_)
    metrics;
  Printf.printf "  %-40s %18.6f ratio  (%d failed of %d attempted)\n" "failed_frac"
    (if l.attempted = 0 then 0.0 else float_of_int l.failed /. float_of_int l.attempted)
    l.failed l.attempted;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev l.problems);
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (l.problems = [] && l.failed = 0)
    l.attempted l.failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with Some n -> seed := Some n | None -> usage ());
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := s
      | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match Option.bind !workload W.find with Some w -> w | None -> usage () in
  let seed = Option.value ~default:W.default_seed !seed in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d\n  why: %s\n%!" w.name seed
    !seconds (Bool.to_int !trace) w.why;
  let l = ledger () in
  let metrics =
    if not !trace then begin
      let rss_kb = ref 0 in
      let after_first () =
        rss_kb := Option.value ~default:0 (Perf_json.probe_peak_rss_kb ())
      in
      let reps =
        repeat ~after_first ~seconds:!seconds ~min_reps:3 (workload_rep w ~seed)
      in
      check_all l ~label:"repetition" reps;
      Printf.printf "  %d timed repetitions; fingerprint %s\n" (List.length (snd reps))
        (Option.value ~default:"-" l.fingerprint);
      let pp_spread name f =
        let a = Array.of_list (List.map f (snd reps)) in
        Array.sort compare a;
        Printf.printf "  repetition %s: min %.6f  median %.6f  max %.6f\n" name a.(0)
          a.(Array.length a / 2) a.(Array.length a - 1)
      in
      pp_spread "wall s" (fun r -> r.wall);
      pp_spread "setup s" (fun r -> r.setup);
      end_to_end (snd reps) ~rss_kb:!rss_kb
    end
    else begin
      let metrics, notes, sections = traced w ~seed ~seconds:!seconds l in
      pp_where sections;
      List.iter (fun n -> Printf.printf "  note: %s\n" n) notes;
      let dir = ".perfbench-out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (w.name ^ ".spans.jsonl") in
      let oc = open_out path in
      List.iter (fun (section, sp) -> Spans.write oc ~section sp) sections;
      close_out oc;
      Printf.printf "  spans written to %s (%d spans)\n" path
        (List.fold_left (fun a (_, sp) -> a + sp.Spans.len) 0 sections);
      metrics
    end
  in
  print_result l metrics;
  exit (if l.problems = [] && l.failed = 0 then 0 else 1)
