(* The streaming workload engine: streamed == materialized for every
   generator at equal seeds, cursor independence, sorted uniform
   arrivals, the file-set interner, and the O(streams + inflight) heap
   bound of the streaming driver. *)

open Workload
module Interner = Sharedfs.File_set.Interner

let check_int = Alcotest.(check int)

(* Fail-fast structural comparison between a stream and a materialized
   trace: same length and duration, record-for-record equal times,
   requests and demands, and every item's dense [fs] id naming the
   request's file set through the stream's own id order. *)
let expect_stream_equals_trace what (stream : Stream.t) trace =
  let names = Array.of_list (Stream.file_sets stream) in
  let records = Trace.records trace in
  check_int (what ^ ": total") (Array.length records) (Stream.total stream);
  Alcotest.(check (float 0.0))
    (what ^ ": duration") (Trace.duration trace)
    (Stream.duration stream);
  let cursor = Stream.start stream in
  Array.iteri
    (fun i (r : Trace.record) ->
      match cursor () with
      | None ->
        Alcotest.failf "%s: stream ended at record %d of %d" what i
          (Array.length records)
      | Some (it : Stream.item) ->
        if
          not
            (it.time = r.time && it.demand = r.demand
           && it.request = r.request
            && names.(it.fs) = r.request.Sharedfs.Request.file_set)
        then Alcotest.failf "%s: record %d differs" what i)
    records;
  match cursor () with
  | None -> ()
  | Some _ -> Alcotest.failf "%s: stream yields past its total" what

(* Small configs so the qcheck property stays fast; each takes the
   drawn seed so streamed-vs-materialized is checked at equal seeds. *)
let small_synthetic seed =
  { Synthetic.default_config with file_sets = 40; requests = 600; seed }

let small_shifting seed =
  {
    Shifting.default_config with
    file_sets = 24;
    requests = 700;
    phases = 4;
    seed;
  }

let small_dfs seed = { Dfs_like.default_config with requests = 800; seed }

let small_sessions seed =
  {
    Sessions.default_config with
    clients = 12;
    file_sets = 16;
    sessions = 80;
    seed;
  }

let with_temp_trace trace f =
  let path = Filename.temp_file "shdisk-stream" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save trace ~path;
      f path)

let check_all_generators seed =
  expect_stream_equals_trace "synthetic"
    (Synthetic.stream (small_synthetic seed))
    (Synthetic.generate (small_synthetic seed));
  expect_stream_equals_trace "shifting"
    (Shifting.stream (small_shifting seed))
    (Shifting.generate (small_shifting seed));
  expect_stream_equals_trace "dfs_like"
    (Dfs_like.stream (small_dfs seed))
    (Dfs_like.generate (small_dfs seed));
  expect_stream_equals_trace "sessions"
    (Sessions.stream (small_sessions seed))
    (Sessions.generate (small_sessions seed));
  (* the fifth generator: trace replay from disk *)
  with_temp_trace
    (Dfs_like.generate (small_dfs seed))
    (fun path ->
      expect_stream_equals_trace "trace_io"
        (Trace_io.stream ~path)
        (Trace_io.load ~path))

let test_generators_once () = check_all_generators 11

let prop_streamed_equals_materialized =
  QCheck.Test.make ~count:10 ~name:"streamed == materialized at equal seeds"
    (QCheck.make QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      check_all_generators seed;
      true)

let test_trace_adapters () =
  let trace = Synthetic.generate (small_synthetic 3) in
  expect_stream_equals_trace "of_trace" (Stream.of_trace trace) trace;
  let stream = Sessions.stream (small_sessions 9) in
  expect_stream_equals_trace "to_trace" stream (Stream.to_trace stream)

(* Cursors must be independent: draining one before touching the other
   cannot perturb either sequence (the driver and the prescient oracle
   each hold their own). *)
let test_cursor_independence () =
  let drain cursor =
    let rec go acc =
      match cursor () with None -> List.rev acc | Some it -> go (it :: acc)
    in
    go []
  in
  let stream = Shifting.stream (small_shifting 7) in
  let a = Stream.start stream in
  let b = Stream.start stream in
  let xs = drain a in
  let ys = drain b in
  check_int "cursor lengths" (List.length xs) (List.length ys);
  if not (List.for_all2 (fun (x : Stream.item) y -> x = y) xs ys) then
    Alcotest.fail "independent cursors disagree"

let test_sorted_uniforms () =
  let rng = Desim.Rng.create 17 in
  let next = Stream.sorted_uniforms rng ~n:500 ~lo:2.0 ~hi:10.0 in
  let prev = ref 2.0 in
  for i = 1 to 500 do
    let x = next () in
    if x < !prev || x > 10.0 then
      Alcotest.failf "draw %d out of order or range: %g (prev %g)" i x !prev;
    prev := x
  done;
  match next () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument past n draws"

let test_interner_basics () =
  let i = Interner.create () in
  check_int "first id" 0 (Interner.intern i "a");
  check_int "second id" 1 (Interner.intern i "b");
  check_int "re-intern is stable" 0 (Interner.intern i "a");
  check_int "size" 2 (Interner.size i);
  Alcotest.(check string) "name" "b" (Interner.name i 1);
  Alcotest.(check (option int)) "find" (Some 1) (Interner.find i "b");
  Alcotest.(check (option int)) "find missing" None (Interner.find i "zz");
  Alcotest.(check (list string)) "names in id order" [ "a"; "b" ]
    (Interner.names i);
  (match Interner.intern i "" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty name must be rejected");
  let j = Interner.of_names [ "x"; "y"; "z" ] in
  check_int "of_names size" 3 (Interner.size j);
  check_int "of_names keeps list positions" 2 (Interner.id j "z")

let prop_interner_roundtrip =
  QCheck.Test.make ~count:100 ~name:"interner round-trip & uniqueness"
    QCheck.(
      list_of_size
        Gen.(1 -- 30)
        (string_gen_of_size Gen.(1 -- 8) Gen.printable))
    (fun names ->
      let i = Interner.create () in
      let ids = List.map (Interner.intern i) names in
      List.for_all2
        (fun n id ->
          Interner.name i id = n
          && Interner.intern i n = id
          && Interner.id i n = id
          && Interner.find i n = Some id)
        names ids
      && Interner.size i = List.length (List.sort_uniq compare names)
      && List.for_all2
           (fun n1 id1 ->
             List.for_all2 (fun n2 id2 -> n1 = n2 = (id1 = id2)) names ids)
           names ids)

(* The tentpole's memory claim as a regression test: scale one
   workload 20x at constant offered load (mean demand divided by the
   same factor) and the event-heap high-water mark must stay flat —
   O(streams + inflight), not O(requests). *)
let test_driver_heap_bound () =
  let small =
    { Synthetic.default_config with file_sets = 60; requests = 2_000; seed = 5 }
  in
  let big =
    {
      small with
      requests = small.requests * 20;
      mean_demand = small.mean_demand /. 20.0;
    }
  in
  let run cfg =
    Experiments.Runner.run_stream Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~stream:(Synthetic.stream cfg) ()
  in
  let rs = run small in
  let rb = run big in
  check_int "small run completes" small.requests rs.completed;
  check_int "big run completes" big.requests rb.completed;
  if rb.sim_peak_pending >= (4 * rs.sim_peak_pending) + 64 then
    Alcotest.failf "heap grew with request count: %d -> %d at 20x requests"
      rs.sim_peak_pending rb.sim_peak_pending

(* The legacy trace driver is the streaming driver over [of_trace]:
   materializing a generator's stream and running it must reproduce
   the streamed run bit for bit, oracle included (Prescient forces the
   look-ahead path). *)
let test_run_matches_run_stream () =
  let stream = Synthetic.stream (small_synthetic 21) in
  let scenario = Experiments.Scenario.default in
  let spec = Experiments.Scenario.Prescient in
  let trace = Stream.to_trace stream in
  let a = Experiments.Runner.run scenario spec ~trace () in
  let b = Experiments.Runner.run_stream scenario spec ~stream () in
  check_int "completed" a.completed b.completed;
  check_int "submitted" a.submitted b.submitted;
  check_int "rounds" a.reconfig_rounds b.reconfig_rounds;
  check_int "moves" (List.length a.moves) (List.length b.moves);
  Alcotest.(check (float 0.0)) "mean" a.overall_mean b.overall_mean;
  Alcotest.(check (float 0.0)) "p95" a.overall_p95 b.overall_p95;
  Alcotest.(check (float 0.0)) "max" a.overall_max b.overall_max

(* Same identity with the span pipeline on: every span begin/end the
   two drivers emit (request lifecycle, rounds, moves) must serialize
   to byte-identical JSONL — span ids, parents and timestamps
   included.  Both drivers get the trace-derived file-set universe
   (materializing drops declared-but-unused names), so this isolates
   the driver identity itself. *)
let test_run_matches_run_stream_traced () =
  let trace = Synthetic.generate (small_synthetic 21) in
  let stream = Stream.of_trace trace in
  let scenario = Experiments.Scenario.default in
  let spec = Experiments.Scenario.Anu Placement.Anu.default_config in
  let trace_of run =
    let ring = Obs.Sink.Ring.create ~capacity:100_000 in
    let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
    let (_ : Experiments.Runner.result) = run obs in
    check_int "nothing evicted" 0 (Obs.Sink.Ring.dropped ring);
    String.concat "\n"
      (List.map Obs.Event.to_jsonl (Obs.Sink.Ring.contents ring))
  in
  let a =
    trace_of (fun obs -> Experiments.Runner.run scenario spec ~trace ~obs ())
  in
  let b =
    trace_of (fun obs ->
        Experiments.Runner.run_stream scenario spec ~stream ~obs ())
  in
  Alcotest.(check bool)
    "byte-identical traces with spans enabled" true (String.equal a b);
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 0)

(* Observers ride the column path.  One workload with lock operations,
   moves that replay buffered requests, and queueing runs twice with
   JSONL tracing, metrics and telemetry attached: plainly (column path,
   per-request state in the cluster's slots) and with a no-op
   [on_request_complete] (closure path).  Everything observable must
   match: the trace bytes, the metrics and telemetry snapshots, the
   result, and the conservation ledger read mid-run — whose [inflight]
   must count the requests the column path holds in slots. *)
let test_column_path_observed_matches_closure_path () =
  let stream =
    Dfs_like.stream
      { Dfs_like.default_config with requests = 12_000; duration = 600.0 }
  in
  let scenario = Experiments.Scenario.default in
  let spec = Experiments.Scenario.Anu Placement.Anu.default_config in
  let probes = List.init 12 (fun i -> 37.123 +. (float_of_int i *. 47.31)) in
  let observe ?on_request_complete () =
    let ring = Obs.Sink.Ring.create ~capacity:200_000 in
    let obs =
      Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ]
        ~metrics:(Obs.Metrics.create ()) ~telemetry:(Obs.Telemetry.create ())
        ()
    in
    let cluster = ref None in
    let ledger = ref [] in
    let on_sim_created sim =
      List.iter
        (fun at ->
          ignore
            (Desim.Sim.schedule_at sim ~time:at (fun () ->
                 ledger :=
                   Sharedfs.Cluster.conservation (Option.get !cluster)
                   :: !ledger)
              : Desim.Sim.handle))
        probes
    in
    let r =
      Experiments.Runner.run_stream scenario spec ~stream ~obs ~on_sim_created
        ~on_cluster:(fun c -> cluster := Some c)
        ?on_request_complete ()
    in
    check_int "nothing evicted" 0 (Obs.Sink.Ring.dropped ring);
    let events = Obs.Sink.Ring.contents ring in
    (r, events, List.rev !ledger)
  in
  let col, col_events, col_ledger = observe () in
  let clo, clo_events, clo_ledger =
    observe ~on_request_complete:(fun _ ~latency:_ -> ()) ()
  in
  (* The workload exercises what the column path must get right. *)
  let has p = List.exists p col_events in
  Alcotest.(check bool) "a move replays buffered requests" true
    (has (function
      | Obs.Event.Move_end { replayed; _ } -> replayed > 0
      | _ -> false));
  Alcotest.(check bool) "requests queue" true
    (has (function
      | Obs.Event.Span_begin { name = "queue"; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "lock operations run" true
    (has (function
      | Obs.Event.Span_begin { attrs; _ } ->
        List.mem (Obs.Event.Op "lock") attrs
      | _ -> false));
  (* The two runs took different paths: only the closure path keeps the
     next arrival in the event heap. *)
  Alcotest.(check bool) "column path keeps arrivals off the heap" true
    (col.sim_peak_pending < clo.sim_peak_pending);
  let jsonl evs = String.concat "\n" (List.map Obs.Event.to_jsonl evs) in
  Alcotest.(check bool) "byte-identical traces" true
    (String.equal (jsonl col_events) (jsonl clo_events));
  Alcotest.(check bool) "same metrics snapshot" true (col.metrics = clo.metrics);
  Alcotest.(check bool) "metrics were collected" true (col.metrics <> None);
  Alcotest.(check bool) "same telemetry snapshot" true
    (col.telemetry = clo.telemetry);
  Alcotest.(check bool) "telemetry was collected" true (col.telemetry <> None);
  let comparable (r : Experiments.Runner.result) =
    { r with sim_wall_seconds = 0.0; sim_peak_pending = 0 }
  in
  Alcotest.(check bool) "same result" true (comparable col = comparable clo);
  check_int "every probe fired" (List.length probes) (List.length col_ledger);
  Alcotest.(check bool) "same conservation ledger mid-run" true
    (col_ledger = clo_ledger);
  Alcotest.(check bool) "some probe sees requests in flight" true
    (List.exists (fun c -> c.Sharedfs.Cluster.inflight > 0) col_ledger);
  List.iter
    (fun (c : Sharedfs.Cluster.conservation) ->
      check_int "conservation holds" c.submitted
        (c.completed + c.inflight + c.buffered + c.lock_waiting))
    col_ledger

(* A caller that keeps the cluster after the run (through [on_cluster])
   must not also keep the run's arrival cursor and per-file-set latency
   summaries: the runner detaches the source and the completion sink
   when the run ends.  Bounds the live heap each kept cluster adds. *)
let test_kept_cluster_releases_run_state () =
  let runs = 8 in
  let kept = ref [] in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for seed = 1 to runs do
    let stream =
      Dfs_like.stream { Dfs_like.default_config with requests = 4_000; seed }
    in
    let (_ : Experiments.Runner.result) =
      Experiments.Runner.run_stream Experiments.Scenario.default
        (Experiments.Scenario.Anu Placement.Anu.default_config)
        ~stream
        ~on_cluster:(fun c -> kept := c :: !kept)
        ()
    in
    ()
  done;
  let per_cluster = (live () - before) * (Sys.word_size / 8) / runs in
  check_int "every cluster kept" runs (List.length !kept);
  if per_cluster >= 200_000 then
    Alcotest.failf "each kept cluster holds %d bytes (bound 200000)"
      per_cluster

(* --- Prefetch --- *)

let dfs_rows requests =
  Dfs_like.stream { Dfs_like.default_config with requests; duration = 600.0 }

(* Every row a batch cursor writes through columns of capacity [cap],
   in order.  After the second call — the one that starts a helper —
   the drain pauses, so the helper is up and takes the cursor over. *)
let drain_rows ?(pause = 0.02) cap (b : Stream.batch_cursor) =
  let c = Stream.make_cols cap in
  let rows = ref [] and calls = ref 0 in
  let rec go () =
    let n = b c in
    incr calls;
    if !calls = 2 then Unix.sleepf pause;
    for j = 0 to n - 1 do
      rows :=
        ( c.times.(j),
          c.fs.(j),
          c.ops.(j),
          c.path.(j),
          c.client.(j),
          c.demand.(j) )
        :: !rows
    done;
    if n > 0 then go ()
  in
  go ();
  List.rev !rows

(* The plain cursor: created off the main domain, no helper starts. *)
let plain_rows cap stream =
  Domain.join
    (Domain.spawn (fun () ->
         drain_rows ~pause:0.0 cap (Option.get (Stream.start_batch stream))))

(* On the main domain a DFS batch cursor is prefetched once more rows
   remain than the ring holds (4 x 256); below that it is the plain
   cursor.  Either way it writes exactly the plain rows, at every
   column capacity, including across ring slots and at the stream's
   end. *)
let test_prefetch_rows_match_plain () =
  List.iter
    (fun requests ->
      let stream = dfs_rows requests in
      List.iter
        (fun cap ->
          let want = plain_rows cap stream in
          check_int
            (Printf.sprintf "%d rows, cap %d: plain count" requests cap)
            requests (List.length want);
          let got = drain_rows cap (Option.get (Stream.start_batch stream)) in
          if got <> want then
            Alcotest.failf "%d rows, cap %d: prefetched rows differ" requests
              cap)
        [ 1; 64; 1_000 ])
    [ 1; 63; 64; 65; 1_024; 1_025; 5_000 ]

(* [inner] wrapped so that each call records whether it ran on the
   main domain, and its [raise_at]th call raises. *)
let counting ?raise_at inner =
  let calls = ref 0 and off_main = Atomic.make 0 in
  let b c =
    incr calls;
    if not (Domain.is_main_domain ()) then Atomic.incr off_main;
    if Some !calls = raise_at then failwith "fill 5 fails";
    inner c
  in
  (b, off_main)

(* A plain batch cursor on the main domain: [of_trace] never
   prefetches. *)
let trace_stream requests =
  Stream.of_trace (Stream.to_trace (dfs_rows requests))

let test_prefetch_helper_fills () =
  let stream = trace_stream 20_000 in
  let want = plain_rows 64 stream in
  let b, off_main = counting (Option.get (Stream.start_batch stream)) in
  let got = drain_rows ~pause:0.2 64 (Stream.prefetch ~rows:20_000 b) in
  Alcotest.(check bool) "same rows" true (got = want);
  if Domain.recommended_domain_count () > 1 then
    Alcotest.(check bool) "the helper generated rows" true
      (Atomic.get off_main > 0)

(* A cursor that raises on its fifth fill: the exception reaches the
   consumer's call, with the generator's backtrace, and nothing
   hangs. *)
let test_prefetch_reraises () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace recording)
    (fun () ->
      let inner = Option.get (Stream.start_batch (trace_stream 20_000)) in
      let b, off_main = counting ~raise_at:5 inner in
      match drain_rows ~pause:0.2 256 (Stream.prefetch ~rows:20_000 b) with
      | _ -> Alcotest.fail "the fifth fill's exception was lost"
      | exception Failure msg ->
        let bt = Printexc.get_raw_backtrace () in
        Alcotest.(check string)
          "the generator's exception" "fill 5 fails" msg;
        Alcotest.(check bool) "with its backtrace" true
          (Printexc.raw_backtrace_length bt > 0);
        if Domain.recommended_domain_count () > 1 then
          Alcotest.(check bool) "raised on the helper" true
            (Atomic.get off_main > 0))

let spec = Experiments.Scenario.Anu Placement.Anu.default_config

(* More abandoned cursors than OCaml allows domains at once (128): each
   started helper must exit once its cursor is collected, so domains
   and full runs still work afterwards. *)
let test_prefetch_abandoned_helpers_exit () =
  let stream = dfs_rows 20_000 in
  let c = Stream.make_cols 64 in
  for _ = 1 to 200 do
    let b = Option.get (Stream.start_batch stream) in
    for _ = 1 to 3 do
      ignore (b c : int)
    done;
    Gc.full_major ()
  done;
  Gc.full_major ();
  check_int "a domain still spawns" 7
    (Domain.join (Domain.spawn (fun () -> 7)));
  let r =
    Experiments.Runner.run_stream Experiments.Scenario.default spec ~stream ()
  in
  check_int "a full run completes" 20_000 r.completed

(* A full observed run on the main domain (prefetched) and the same run
   inside a spawned domain (no helper) agree on everything but wall
   time: trace bytes, metrics and telemetry snapshots, and the
   result. *)
let test_prefetched_run_matches_plain () =
  let stream = dfs_rows 12_000 in
  let observe () =
    let ring = Obs.Sink.Ring.create ~capacity:200_000 in
    let obs =
      Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ]
        ~metrics:(Obs.Metrics.create ()) ~telemetry:(Obs.Telemetry.create ())
        ()
    in
    let r =
      Experiments.Runner.run_stream Experiments.Scenario.default spec ~stream
        ~obs ()
    in
    let jsonl =
      String.concat "\n"
        (List.map Obs.Event.to_jsonl (Obs.Sink.Ring.contents ring))
    in
    ({ r with sim_wall_seconds = 0.0 }, Obs.Sink.Ring.dropped ring, jsonl)
  in
  let main, main_dropped, main_jsonl = observe () in
  let plain, plain_dropped, plain_jsonl =
    Domain.join (Domain.spawn observe)
  in
  check_int "nothing evicted" 0 (main_dropped + plain_dropped);
  check_int "every request completes" 12_000 main.completed;
  Alcotest.(check bool) "byte-identical traces" true
    (String.equal main_jsonl plain_jsonl);
  Alcotest.(check bool) "same metrics snapshot" true
    (main.metrics = plain.metrics && main.metrics <> None);
  Alcotest.(check bool) "same telemetry snapshot" true
    (main.telemetry = plain.telemetry && main.telemetry <> None);
  Alcotest.(check bool) "same result" true (main = plain)

let suite =
  [
    Alcotest.test_case "generators: streamed == materialized" `Quick
      test_generators_once;
    Alcotest.test_case "trace adapters round-trip" `Quick test_trace_adapters;
    Alcotest.test_case "cursors are independent" `Quick
      test_cursor_independence;
    Alcotest.test_case "sorted_uniforms" `Quick test_sorted_uniforms;
    Alcotest.test_case "interner basics" `Quick test_interner_basics;
    Alcotest.test_case "driver heap stays O(streams)" `Quick
      test_driver_heap_bound;
    Alcotest.test_case "run == run_stream" `Quick test_run_matches_run_stream;
    Alcotest.test_case "run == run_stream under tracing" `Quick
      test_run_matches_run_stream_traced;
    Alcotest.test_case "observed column path == closure path" `Quick
      test_column_path_observed_matches_closure_path;
    Alcotest.test_case "kept cluster releases run state" `Quick
      test_kept_cluster_releases_run_state;
    Alcotest.test_case "prefetched rows == plain rows" `Quick
      test_prefetch_rows_match_plain;
    Alcotest.test_case "prefetch helper generates rows" `Quick
      test_prefetch_helper_fills;
    Alcotest.test_case "prefetch re-raises with backtrace" `Quick
      test_prefetch_reraises;
    Alcotest.test_case "abandoned prefetch helpers exit" `Quick
      test_prefetch_abandoned_helpers_exit;
    Alcotest.test_case "prefetched run == plain run" `Quick
      test_prefetched_run_matches_plain;
    QCheck_alcotest.to_alcotest prop_streamed_equals_materialized;
    QCheck_alcotest.to_alcotest prop_interner_roundtrip;
  ]
