(* The benchmark harness.

   Three sections:

   1. Figure regeneration — for every evaluation figure of the paper
      (6-11) plus the ablations, run the full-size simulation and print
      the per-server latency series and summary (the data behind the
      paper's plots).  `--jobs N` fans the independent simulations
      behind each figure out over N domains; output is bit-identical
      to serial.

   2. Micro-benchmarks (Bechamel) — cost of the mechanisms the paper
      argues are cheap: hash probes, ANU addressing, region rescaling,
      the event queue, and the prescient packing it is compared
      against.

   3. Perf snapshots — `perf` writes a machine-readable BENCH_*.json
      (engine events/s, micro ns/op, addressing probes), `stream`
      writes one for a single fig6-scale streaming run at any request
      count, and `compare` diffs two snapshots, flagging >10%
      regressions; CI keeps a committed baseline honest with these.

   Run everything: dune exec bench/main.exe
   Subset:         dune exec bench/main.exe -- fig6 fig10 micro --jobs 4
   Snapshot:       dune exec bench/main.exe -- perf fig6 --out BENCH_fig6.json
   Stream:         dune exec bench/main.exe -- stream --requests 2000000
                     [--materialized] [--out BENCH_stream.json]
   Diff:           dune exec bench/main.exe -- compare old.json new.json *)

open Bechamel
open Toolkit

(* Benchmark GC regime: an 8M-word minor heap keeps the streaming
   driver's few surviving words from forcing minor collections every
   few hundred thousand events, and a relaxed space_overhead stops the
   major GC from competing with the measurement.  Results are
   unaffected (simulations are deterministic); only wall clocks and
   the GC-evidence fields see it. *)
let () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 8 * 1024 * 1024;
      space_overhead = 200;
    }

let pp_figure_result figure =
  Format.printf "%a@." (Experiments.Report.pp_figure ~max_minutes:60.0) figure

(* Engine throughput across every simulation behind one figure: the
   runner captures Sim.events_fired and the monotonic wall clock around
   each Sim.run; summing them isolates the engine from trace generation
   and report rendering (which the figure-level wall clock includes). *)
let pp_engine_throughput ppf figure =
  let tp = Experiments.Runner.throughput figure.Experiments.Figures.results in
  if tp.engine_wall_seconds > 0.0 then
    Format.fprintf ppf "%d events in %.1f s engine time, %.0f events/s"
      tp.events tp.engine_wall_seconds tp.events_per_second
  else Format.fprintf ppf "%d events" tp.events

let run_figure ~jobs id =
  match Experiments.Figures.by_id id with
  | None -> Format.printf "unknown experiment: %s@." id
  | Some build ->
    let t0 = Desim.Clock.now_ns () in
    let figure = build ~quick:false ~jobs () in
    pp_figure_result figure;
    (* Timing goes to stderr: stdout carries only deterministic figure
       data, so `fig6 --jobs 4` and `--jobs 1` are byte-identical. *)
    Format.eprintf "(%s regenerated in %.1f s with %d job%s; %a)@.@." id
      (Desim.Clock.seconds_since t0)
      jobs
      (if jobs = 1 then "" else "s")
      pp_engine_throughput figure

(* --- micro-benchmarks --- *)

let micro_tests () =
  let family = Hashlib.Hash_family.create ~seed:42 in
  let servers = List.init 5 Sharedfs.Server_id.of_int in
  let anu = Placement.Anu.create ~family ~servers () in
  let map16 =
    Placement.Region_map.create
      ~servers:(List.init 16 Sharedfs.Server_id.of_int)
  in
  let rng = Desim.Rng.create 7 in
  let names = Array.init 4096 (Printf.sprintf "file-set-%d") in
  let counter = ref 0 in
  let next_name () =
    incr counter;
    names.(!counter land 4095)
  in
  let demands_500 =
    List.init 500 (fun i ->
        (Printf.sprintf "fs-%03d" i, Desim.Rng.float rng +. 0.01))
  in
  let speeds =
    List.map
      (fun (id, s) -> (Sharedfs.Server_id.of_int id, s))
      Experiments.Scenario.paper_servers
  in
  let scale_targets =
    List.map
      (fun id -> (id, 0.5 +. Desim.Rng.float rng))
      (List.init 16 Sharedfs.Server_id.of_int)
  in
  [
    Test.make ~name:"hash_family.point"
      (Staged.stage (fun () ->
           Hashlib.Hash_family.point family ~round:0 (next_name ())));
    Test.make ~name:"anu.locate (5 servers)"
      (Staged.stage (fun () -> Placement.Anu.locate anu (next_name ())));
    Test.make ~name:"region_map.scale (16 servers)"
      (Staged.stage (fun () ->
           Placement.Region_map.scale map16 ~targets:scale_targets));
    Test.make ~name:"region_map.locate (16 servers)"
      (Staged.stage (fun () ->
           Placement.Region_map.locate map16 (Desim.Rng.float rng)));
    Test.make ~name:"prescient.lpt (500 sets, 5 servers)"
      (Staged.stage (fun () ->
           Placement.Prescient.lpt_assignment ~speeds ~demands:demands_500
             ~current:(fun _ -> None)
             ~stability_bias:0.0));
    Test.make ~name:"event_heap push+pop (1k)"
      (Staged.stage (fun () ->
           let h = Desim.Event_heap.create () in
           for i = 0 to 999 do
             ignore (Desim.Event_heap.add h ~time:(Desim.Rng.float rng) i)
           done;
           while not (Desim.Event_heap.is_empty h) do
             ignore (Desim.Event_heap.pop h)
           done));
    Test.make ~name:"station serve 100 jobs"
      (Staged.stage (fun () ->
           let sim = Desim.Sim.create () in
           let st = Desim.Station.create sim ~name:"b" ~speed:1.0 in
           Desim.Station.set_sink st (fun ~tag:_ ~latency:_ -> ());
           for i = 0 to 99 do
             Desim.Station.submit_tagged st ~demand:0.01 ~tag:i
           done;
           Desim.Sim.run sim));
  ]

(* OLS ns/run estimates for every micro test, in declaration order. *)
let micro_estimates ?(quota_seconds = 0.5) () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota_seconds) ~stabilize:true
      ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg instances test in
      Hashtbl.fold
        (fun name raw acc ->
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> (name, ns) :: acc
          | Some _ | None -> acc)
        results []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
    (micro_tests ())

let run_micro () =
  Format.printf "=== micro-benchmarks (Bechamel, ns/run) ===@.";
  List.iter
    (fun (name, ns) -> Format.printf "%-40s %12.1f ns/run@." name ns)
    (micro_estimates ());
  Format.printf "@."

let run_motivation () =
  Format.printf
    "=== motivation: metadata imbalance leaves the SAN underutilized ===@.";
  Format.printf
    "Every completed open launches a data transfer on a 40 MB/s SAN; both@.policies \
     see identical data work (Section 2 of the paper).@.";
  let t0 = Desim.Clock.now_ns () in
  List.iter
    (fun r -> Format.printf "%a@." Experiments.Motivation.pp_result r)
    (Experiments.Motivation.experiment ());
  Format.printf "(motivation regenerated in %.1f s)@.@."
    (Desim.Clock.seconds_since t0)

let run_membership () =
  Format.printf
    "=== membership study: movement on failure/recovery ===@.";
  Format.printf
    "Owner changes among 10,000 file sets when server 2 of 5 fails and \
     recovers.@.";
  let t0 = Desim.Clock.now_ns () in
  List.iter
    (fun r -> Format.printf "%a@." Experiments.Membership.pp_result r)
    (Experiments.Membership.compare_all ~servers:5 ~file_sets:10_000 ~failed:2
       ~seed:5);
  Format.printf "(membership study in %.1f s)@.@."
    (Desim.Clock.seconds_since t0);
  Format.printf
    "=== movement collateral of a fault campaign (chaos harness) ===@.";
  Format.printf
    "Same synthetic workload, clean vs. the default seeded fault plan.@.";
  let t1 = Desim.Clock.now_ns () in
  List.iter
    (fun spec ->
      Format.printf "%a@." Experiments.Membership.pp_chaos_collateral
        (Experiments.Membership.collateral_under_chaos ~quick:true ~seed:42
           ~spec ()))
    [
      Experiments.Scenario.Anu Placement.Anu.default_config;
      Experiments.Scenario.Round_robin;
    ];
  Format.printf "(chaos collateral in %.1f s)@.@."
    (Desim.Clock.seconds_since t1)

let run_balance () =
  Format.printf
    "=== balance study: scaling absorbs hashing variance (Section 4) ===@.";
  Format.printf
    "Homogeneous servers, uniform file sets; max/mean load over trials.@.";
  let t0 = Desim.Clock.now_ns () in
  List.iter
    (fun (servers, file_sets) ->
      List.iter
        (fun r ->
          Format.printf "%a@." Placement.Balance_study.pp_result r)
        (Placement.Balance_study.compare_all ~servers ~file_sets ~trials:50
           ~seed:1);
      Format.printf "@.")
    [ (5, 100); (8, 512); (16, 2048) ];
  Format.printf "(balance study in %.1f s)@.@." (Desim.Clock.seconds_since t0)

let run_validate () =
  Format.printf "=== claim validation (paper's headline results) ===@.";
  let t0 = Desim.Clock.now_ns () in
  let checks = Experiments.Validate.run () in
  Format.printf "%a@." Experiments.Validate.pp checks;
  Format.printf "(validated in %.1f s)@.@." (Desim.Clock.seconds_since t0)

(* --- perf snapshot and comparison modes --- *)

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 1)
    fmt

let run_perf args =
  let quick = ref false in
  let jobs = ref 1 in
  let out = ref None in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := j
      | _ -> fail_usage "perf: --jobs expects a positive integer, got %s" n);
      parse rest
    | "--out" :: path :: rest ->
      out := Some path;
      parse rest
    | ("--jobs" | "--out") :: [] ->
      fail_usage "perf: missing value after final option"
    | id :: rest ->
      (match Experiments.Figures.by_id id with
      | Some _ -> ids := id :: !ids
      | None -> fail_usage "perf: unknown experiment %s" id);
      parse rest
  in
  parse args;
  let ids = if !ids = [] then [ "fig6" ] else List.rev !ids in
  let quick = !quick in
  let jobs = !jobs in
  let path =
    match !out with
    | Some p -> p
    | None ->
      Printf.sprintf "BENCH_%s%s.json" (String.concat "-" ids)
        (if quick then "_quick" else "")
  in
  let figures =
    List.map
      (fun id ->
        let build = Option.get (Experiments.Figures.by_id id) in
        Format.printf "perf: running %s (quick=%b, jobs=%d)...@." id quick jobs;
        let g0 = Gc.quick_stat () in
        let t0 = Desim.Clock.now_ns () in
        let figure = build ~quick ~jobs () in
        let wall = Desim.Clock.seconds_since t0 in
        let g1 = Gc.quick_stat () in
        Perf_json.figure_metrics ~gc:(g0, g1) ~id ~wall_seconds:wall
          figure.Experiments.Figures.results)
      ids
  in
  Format.printf "perf: micro-benchmarks...@.";
  let micros =
    List.map
      (fun (name, ns) -> { Perf_json.name; ns_per_run = ns })
      (micro_estimates ~quota_seconds:(if quick then 0.25 else 0.5) ())
  in
  Format.printf "perf: addressing sweep...@.";
  let addressing = Perf_json.addressing_sweep () in
  Format.printf "perf: reconfiguration sweep (n = 100 / 1k / 10k)...@.";
  let scale = Perf_json.reconfig_sweep () in
  (* Observability overhead probe: one streaming ANU run with the span
     and telemetry instrumentation compiled in but no Obs.Ctx attached
     — exactly the hot path every production-shaped run takes.  Its
     events/s rides the blocking perf diff, so instrumentation that
     stops being free when disabled fails CI. *)
  let overhead_requests = if quick then 200_000 else 1_000_000 in
  Format.printf "perf: obs overhead probe (%d requests, tracing off)...@."
    overhead_requests;
  let obs_overhead =
    let g0 = Gc.quick_stat () in
    let t0 = Desim.Clock.now_ns () in
    let result =
      Experiments.Runner.run_stream Experiments.Scenario.default
        (Experiments.Scenario.Anu Placement.Anu.default_config)
        ~stream:(Experiments.Figures.dfs_stream ~requests:overhead_requests)
        ()
    in
    let wall = Desim.Clock.seconds_since t0 in
    let g1 = Gc.quick_stat () in
    Perf_json.figure_metrics ~gc:(g0, g1) ~id:"obs_overhead"
      ~wall_seconds:wall [ result ]
  in
  let snapshot =
    {
      Perf_json.quick;
      jobs;
      figures;
      micros;
      addressing;
      scale;
      obs_overhead = Some obs_overhead;
      peak_rss_kb = Perf_json.probe_peak_rss_kb ();
    }
  in
  Perf_json.save snapshot ~path;
  Format.printf "wrote %s@." path

(* Streaming scale benchmark: one ANU run of the figure-6 workload at
   an arbitrary request count, through either the constant-memory
   stream driver (default) or the materialize-first adapter
   (--materialized, the pre-streaming memory profile).  Writes the
   same snapshot schema as `perf`, so `compare` diffs the two. *)
let run_stream_bench args =
  let requests = ref 10_000_000 in
  let materialized = ref false in
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "--requests" :: n :: rest ->
      (match int_of_string_opt n with
      | Some r when r >= 1 -> requests := r
      | _ ->
        fail_usage "stream: --requests expects a positive integer, got %s" n);
      parse rest
    | "--materialized" :: rest ->
      materialized := true;
      parse rest
    | "--out" :: path :: rest ->
      out := Some path;
      parse rest
    | ("--requests" | "--out") :: [] ->
      fail_usage "stream: missing value after final option"
    | arg :: _ -> fail_usage "stream: unknown argument %s" arg
  in
  parse args;
  let requests = !requests in
  let materialized = !materialized in
  let path =
    match !out with
    | Some p -> p
    | None ->
      Printf.sprintf "BENCH_stream_%s.json"
        (if materialized then "before" else "after")
  in
  Format.printf "stream: %d requests, %s driver...@." requests
    (if materialized then "materialized" else "streaming");
  let anu = Experiments.Scenario.Anu Placement.Anu.default_config in
  let g0 = Gc.quick_stat () in
  let t0 = Desim.Clock.now_ns () in
  let result =
    if materialized then begin
      let trace =
        Workload.Stream.to_trace (Experiments.Figures.dfs_stream ~requests)
      in
      Experiments.Runner.run Experiments.Scenario.default anu ~trace ()
    end
    else
      Experiments.Runner.run_stream Experiments.Scenario.default anu
        ~stream:(Experiments.Figures.dfs_stream ~requests) ()
  in
  let wall = Desim.Clock.seconds_since t0 in
  let g1 = Gc.quick_stat () in
  let figure =
    Perf_json.figure_metrics ~gc:(g0, g1) ~id:"fig6-stream"
      ~wall_seconds:wall [ result ]
  in
  let snapshot =
    {
      Perf_json.quick = false;
      jobs = 1;
      figures = [ figure ];
      micros = [];
      addressing = Perf_json.addressing_sweep ();
      scale = [];
      obs_overhead = None;
      peak_rss_kb = Perf_json.probe_peak_rss_kb ();
    }
  in
  Perf_json.save snapshot ~path;
  let tp = Experiments.Runner.throughput [ result ] in
  Format.printf
    "%d requests (%d completed): %d events in %.1f s engine time (%.0f \
     events/s), %.1f minor words/event, %d major collections, peak heap %d \
     events, peak RSS %s@."
    requests result.Experiments.Runner.completed tp.events
    tp.engine_wall_seconds tp.events_per_second
    figure.Perf_json.gc_minor_words_per_event
    figure.Perf_json.gc_major_collections
    result.Experiments.Runner.sim_peak_pending
    (match Perf_json.probe_peak_rss_kb () with
    | Some kb -> Printf.sprintf "%d kB" kb
    | None -> "n/a");
  Format.printf "wrote %s@." path

(* The reconfiguration sweep alone, as a snapshot: the evidence file
   behind the O(changed) round claim.  `--max-tune-n N` skips the
   timed retune rounds above cluster size N — the pre-optimization
   code cannot finish a retune at n = 10,000 in bounded time, so the
   committed BENCH_scale_before.json is produced with
   `--max-tune-n 1000`; its n=10000 ns_per_reconfig is 0.0 and the
   comparison skips that one metric. *)
let run_scale_probe args =
  let out = ref "BENCH_scale.json" in
  let max_tune_n = ref max_int in
  let rec parse = function
    | [] -> ()
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | "--max-tune-n" :: n :: rest ->
      (match int_of_string_opt n with
      | Some v when v >= 0 -> max_tune_n := v
      | _ ->
        fail_usage "scale-probe: --max-tune-n expects an integer, got %s" n);
      parse rest
    | ("--out" | "--max-tune-n") :: [] ->
      fail_usage "scale-probe: missing value after final option"
    | arg :: _ -> fail_usage "scale-probe: unknown argument %s" arg
  in
  parse args;
  Format.printf "scale-probe: reconfiguration sweep (n = 100 / 1k / 10k)...@.";
  let scale = Perf_json.reconfig_sweep ~max_tune_n:!max_tune_n () in
  List.iter
    (fun (s : Perf_json.scale_metrics) ->
      Format.printf
        "n=%-6d %12.0f ns/round (%.1f rounds/s)%s@." s.n s.ns_per_round
        s.rounds_per_second
        (if s.tune_rounds = 0 then ""
         else Printf.sprintf ", %12.0f ns/reconfig" s.ns_per_reconfig))
    scale;
  let snapshot =
    {
      Perf_json.quick = false;
      jobs = 1;
      figures = [];
      micros = [];
      addressing = Perf_json.addressing_sweep ();
      scale;
      obs_overhead = None;
      peak_rss_kb = Perf_json.probe_peak_rss_kb ();
    }
  in
  Perf_json.save snapshot ~path:!out;
  Format.printf "wrote %s@." !out

let run_compare args =
  let threshold = ref 0.10 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0.0 -> threshold := t
      | _ -> fail_usage "compare: bad --threshold %s" v);
      parse rest
    | "--threshold" :: [] -> fail_usage "compare: missing threshold value"
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse args;
  match List.rev !files with
  | [ base_path; new_path ] ->
    let load path =
      match Perf_json.load ~path with
      | Ok t -> t
      | Error msg -> fail_usage "compare: %s" msg
    in
    let baseline = load base_path in
    let current = load new_path in
    let deltas =
      Perf_json.compare_runs ~baseline ~current ~threshold:!threshold
    in
    if deltas = [] then fail_usage "compare: no common metrics";
    Format.printf "perf comparison (threshold %.0f%%): %s -> %s@."
      (!threshold *. 100.0) base_path new_path;
    List.iter (fun d -> Format.printf "%a@." Perf_json.pp_delta d) deltas;
    let regressions = List.filter (fun d -> d.Perf_json.regression) deltas in
    if regressions <> [] then begin
      Format.printf "@.%d metric(s) regressed beyond %.0f%%@."
        (List.length regressions)
        (!threshold *. 100.0);
      exit 2
    end
    else Format.printf "@.no regressions beyond %.0f%%@." (!threshold *. 100.0)
  | _ -> fail_usage "usage: compare [--threshold FRAC] OLD.json NEW.json"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "perf" :: rest -> run_perf rest
  | "stream" :: rest -> run_stream_bench rest
  | "scale-probe" :: rest -> run_scale_probe rest
  | "compare" :: rest -> run_compare rest
  | args ->
    (* Text mode: figure/study ids with an optional --jobs N. *)
    let jobs = ref 1 in
    let ids = ref [] in
    let rec parse = function
      | [] -> ()
      | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | _ -> fail_usage "--jobs expects a positive integer, got %s" n);
        parse rest
      | "--jobs" :: [] -> fail_usage "missing value after --jobs"
      | id :: rest ->
        ids := id :: !ids;
        parse rest
    in
    parse args;
    let all =
      ("motivation" :: Experiments.Figures.all_ids)
      @ [ "membership"; "balance"; "micro"; "validate" ]
    in
    let selected = if !ids = [] then all else List.rev !ids in
    List.iter
      (fun id ->
        match id with
        | "micro" -> run_micro ()
        | "motivation" -> run_motivation ()
        | "membership" -> run_membership ()
        | "balance" -> run_balance ()
        | "validate" -> run_validate ()
        | _ -> run_figure ~jobs:!jobs id)
      selected
