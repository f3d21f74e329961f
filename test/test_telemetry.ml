(* Telemetry: the space-saving sketch's exact/overestimate contract,
   per-server series bookkeeping, and the runner integration (per-run
   isolated registries, snapshots that agree with the result's own
   counts). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Every registry here reads its time from [clock], which each call
   below sets first, and names the file sets of [file_sets]. *)
let clock = [| 0.0 |]

let file_sets = [| "a"; "b"; "c"; "d" |]

let create ?interval ?top_k () =
  let tl = Obs.Telemetry.create ?interval ?top_k () in
  Obs.Telemetry.bind tl ~clock ~file_sets;
  tl

let fs_index name =
  let rec go i = if file_sets.(i) = name then i else go (i + 1) in
  go 0

let submit tl ~time ~file_set =
  clock.(0) <- time;
  Obs.Telemetry.observe_submit tl ~fs:(fs_index file_set)

let service tl ~time ~server ~service =
  clock.(0) <- time;
  Obs.Telemetry.observe_service tl ~server ~service:[| service |] ~at:0

let complete tl ~time ~server ~queue_depth ~latency =
  clock.(0) <- time;
  Obs.Telemetry.observe_complete tl ~server ~queue_depth ~latency

(* Below capacity the sketch is an exact counter: every entry reports
   its true frequency with overestimate 0, ranked by count then name. *)
let test_sketch_exact_under_capacity () =
  let tl = create ~interval:10.0 ~top_k:4 () in
  List.iter
    (fun (time, file_set) -> submit tl ~time ~file_set)
    [
      (0.0, "a"); (1.0, "b"); (2.0, "a"); (3.0, "c"); (4.0, "a"); (5.0, "b");
    ];
  let s = Obs.Telemetry.snapshot tl ~until:10.0 in
  check_int "total requests" 6 s.Obs.Telemetry.total_requests;
  match s.Obs.Telemetry.heavy_hitters with
  | [ h1; h2; h3 ] ->
    Alcotest.(check string) "top" "a" h1.Obs.Telemetry.file_set;
    check_int "top count" 3 h1.Obs.Telemetry.count;
    check_int "top exact" 0 h1.Obs.Telemetry.overestimate;
    Alcotest.(check string) "second" "b" h2.Obs.Telemetry.file_set;
    check_int "second count" 2 h2.Obs.Telemetry.count;
    Alcotest.(check string) "third" "c" h3.Obs.Telemetry.file_set;
    check_int "third exact" 0 h3.Obs.Telemetry.overestimate
  | hs -> Alcotest.failf "expected three heavy hitters, got %d" (List.length hs)

(* Past capacity the newcomer inherits the evicted minimum's count as a
   floor and carries it as its overestimate bound, so consumers can
   separate exact counts from inherited ones. *)
let test_sketch_eviction_overestimate () =
  let tl = create ~interval:10.0 ~top_k:2 () in
  List.iter
    (fun (time, file_set) -> submit tl ~time ~file_set)
    [ (0.0, "a"); (1.0, "a"); (2.0, "b"); (3.0, "c") ];
  let s = Obs.Telemetry.snapshot tl ~until:10.0 in
  match s.Obs.Telemetry.heavy_hitters with
  | [ h1; h2 ] ->
    (* "c" evicted "b" (the minimum, count 1) and inherited its count:
       reported count 2, of which up to 1 may be inherited. *)
    Alcotest.(check string) "kept the true heavy hitter" "a"
      h1.Obs.Telemetry.file_set;
    check_int "exact count" 2 h1.Obs.Telemetry.count;
    check_int "no overestimate" 0 h1.Obs.Telemetry.overestimate;
    Alcotest.(check string) "newcomer replaced the minimum" "c"
      h2.Obs.Telemetry.file_set;
    check_int "inherited floor plus one" 2 h2.Obs.Telemetry.count;
    check_int "overestimate bound" 1 h2.Obs.Telemetry.overestimate
  | hs -> Alcotest.failf "expected two heavy hitters, got %d" (List.length hs)

(* Per-server bookkeeping: busy seconds accumulate from service
   observations, utilization is busy/until, request counts come from
   completions, and every series closes at the snapshot horizon. *)
let test_server_summaries () =
  let tl = create ~interval:10.0 () in
  service tl ~time:1.0 ~server:0 ~service:2.0;
  complete tl ~time:3.0 ~server:0 ~queue_depth:1
    ~latency:2.5;
  service tl ~time:12.0 ~server:0 ~service:3.0;
  complete tl ~time:15.0 ~server:0 ~queue_depth:0
    ~latency:3.0;
  service tl ~time:4.0 ~server:2 ~service:1.0;
  complete tl ~time:5.0 ~server:2 ~queue_depth:4
    ~latency:1.0;
  let s = Obs.Telemetry.snapshot tl ~until:20.0 in
  match s.Obs.Telemetry.servers with
  | [ s0; s2 ] ->
    check_int "sorted by id: first" 0 s0.Obs.Telemetry.server;
    check_int "sorted by id: second" 2 s2.Obs.Telemetry.server;
    check_int "server 0 requests" 2 s0.Obs.Telemetry.requests;
    Alcotest.(check (float 1e-9))
      "server 0 busy seconds" 5.0 s0.Obs.Telemetry.busy_seconds;
    Alcotest.(check (float 1e-9))
      "server 0 utilization" 0.25 s0.Obs.Telemetry.utilization;
    (* finish at 20.0 materializes buckets 0, 10 and 20 *)
    check_int "series span the horizon" 3
      (List.length s0.Obs.Telemetry.occupancy);
    check_int "server 2 requests" 1 s2.Obs.Telemetry.requests
  | ss -> Alcotest.failf "expected two servers, got %d" (List.length ss)

let small_trace =
  Workload.Synthetic.generate
    {
      Workload.Synthetic.default_config with
      Workload.Synthetic.file_sets = 40;
      requests = 2_000;
      duration = 2_000.0;
    }

let run_with_obs obs =
  Experiments.Runner.run Experiments.Scenario.default
    (Experiments.Scenario.Anu Placement.Anu.default_config)
    ~trace:small_trace ~obs ()

let run_with_telemetry () =
  run_with_obs (Obs.Ctx.create ~telemetry:(Obs.Telemetry.create ()) ())

(* The runner integration: a telemetry-carrying context yields a
   per-run snapshot whose totals agree with the result's own
   bookkeeping. *)
let test_runner_telemetry_snapshot () =
  let r = run_with_telemetry () in
  match r.Experiments.Runner.telemetry with
  | None -> Alcotest.fail "expected a telemetry snapshot"
  | Some s ->
    check_int "total requests = submitted" r.Experiments.Runner.submitted
      s.Obs.Telemetry.total_requests;
    let per_server =
      List.fold_left
        (fun acc sv -> acc + sv.Obs.Telemetry.requests)
        0 s.Obs.Telemetry.servers
    in
    check_int "per-server requests sum to completed"
      r.Experiments.Runner.completed per_server;
    let rate_total =
      List.fold_left
        (fun acc (p : Desim.Timeseries.point) -> acc + p.Desim.Timeseries.count)
        0 s.Obs.Telemetry.request_rate
    in
    check_int "request-rate series sums to submitted"
      r.Experiments.Runner.submitted rate_total;
    check_bool "heavy hitters found" true
      (s.Obs.Telemetry.heavy_hitters <> []);
    List.iter
      (fun sv ->
        check_bool "utilization in [0,1]" true
          (sv.Obs.Telemetry.utilization >= 0.0
          && sv.Obs.Telemetry.utilization <= 1.0))
      s.Obs.Telemetry.servers;
    (* The JSON payload must parse back and expose the same totals. *)
    let json = Obs.Telemetry.snapshot_to_json s in
    (match Obs.Json.of_string (Obs.Json.to_string json) with
    | Error e -> Alcotest.failf "telemetry JSON invalid: %s" e
    | Ok j ->
      Alcotest.(check (option int))
        "JSON total_requests"
        (Some s.Obs.Telemetry.total_requests)
        Obs.Json.(to_int (member "total_requests" j)));
    ignore (Format.asprintf "%a" Obs.Telemetry.pp_snapshot s)

(* Ctx.isolated gives every run a fresh registry derived from the
   attached one's config: two runs off the SAME context must produce
   equal snapshots (no cross-run accumulation in a shared registry). *)
let test_runner_telemetry_isolated_per_run () =
  let obs = Obs.Ctx.create ~telemetry:(Obs.Telemetry.create ()) () in
  let a = run_with_obs obs in
  let b = run_with_obs obs in
  check_bool "telemetry present" true (a.Experiments.Runner.telemetry <> None);
  check_bool "equal snapshots across runs off one context" true
    (a.Experiments.Runner.telemetry = b.Experiments.Runner.telemetry)

(* A service start allocates nothing once its server has state: the
   time comes from the bound clock and the service from a cell, as a
   station passes it. *)
let test_observe_service_allocates_nothing () =
  let tl = create ~interval:60.0 () in
  let service = [| 1.0; 0.25 |] in
  clock.(0) <- 12.5;
  Obs.Telemetry.observe_service tl ~server:3 ~service ~at:1;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.Telemetry.observe_service tl ~server:3 ~service ~at:1
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    "minor words per call" 0.0
    ((after -. before) /. 10_000.0);
  match (Obs.Telemetry.snapshot tl ~until:60.0).servers with
  | [ s ] ->
    check_int "server" 3 s.server;
    Alcotest.(check (float 0.0))
      "busy seconds" (10_001.0 *. 0.25) s.busy_seconds
  | servers -> Alcotest.failf "%d servers, expected 1" (List.length servers)

(* Submissions, service starts and completions allocate nothing
   either: the queue depth is an int, the file set an index, the
   service time a cell, the latency arrives boxed, and the time moves
   on inside one bucket. *)
let test_observe_submit_complete_allocate_nothing () =
  let tl = create ~interval:1e6 ~top_k:2 () in
  let latency = Sys.opaque_identity 0.125 in
  let service = [| 0.0 |] in
  let step i =
    clock.(0) <- float_of_int i *. 0.01;
    service.(0) <- float_of_int (i land 15) *. 0.001;
    Obs.Telemetry.observe_submit tl ~fs:(i land 3);
    Obs.Telemetry.observe_service tl ~server:(i land 1) ~service ~at:0;
    Obs.Telemetry.observe_complete tl ~server:(i land 1) ~queue_depth:(i land 7)
      ~latency
  in
  for i = 0 to 3 do
    step i
  done;
  let before = Gc.minor_words () in
  for i = 4 to 10_003 do
    step i
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    "minor words per call" 0.0
    ((after -. before) /. 10_000.0);
  let s = Obs.Telemetry.snapshot tl ~until:100.0 in
  check_int "every submission counted" 10_004 s.total_requests;
  check_int "both servers" 2 (List.length s.servers)

(* The index-keyed sketch ranks, evicts and breaks count ties exactly
   as the name-keyed oracle does: random streams over fewer and more
   distinct file sets than [top_k], the names in an order unrelated to
   their indexes so that a tie broken on the index would show. *)
let prop_sketch_matches_oracle =
  let gen =
    let open QCheck.Gen in
    let* top_k = 1 -- 6 and* keys = 1 -- 12 in
    let* stream = list_size (0 -- 300) (0 -- (keys - 1)) in
    return (top_k, keys, stream)
  in
  QCheck.Test.make ~count:500 ~name:"index-keyed sketch ranks as the oracle"
    (QCheck.make
       ~print:(fun (k, n, s) ->
         Printf.sprintf "top_k=%d keys=%d [%s]" k n
           (String.concat ";" (List.map string_of_int s)))
       gen)
    (fun (top_k, keys, stream) ->
      let names =
        Array.init keys (fun i ->
            Printf.sprintf "fs-%c%d" (Char.chr (122 - (i * 7 mod 26))) i)
      in
      let tl = Obs.Telemetry.create ~top_k () in
      Obs.Telemetry.bind tl ~clock:[| 0.0 |] ~file_sets:names;
      let oracle = Sketch_oracle.create ~capacity:top_k in
      List.iter
        (fun fs ->
          Obs.Telemetry.observe_submit tl ~fs;
          Sketch_oracle.observe oracle names.(fs))
        stream;
      let got =
        List.map
          (fun (h : Obs.Telemetry.heavy_hitter) ->
            (h.file_set, h.count, h.overestimate))
          (Obs.Telemetry.snapshot tl ~until:1.0).heavy_hitters
      in
      got = Sketch_oracle.ranked oracle)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sketch_matches_oracle;
    Alcotest.test_case "sketch exact under capacity" `Quick
      test_sketch_exact_under_capacity;
    Alcotest.test_case "sketch eviction overestimate" `Quick
      test_sketch_eviction_overestimate;
    Alcotest.test_case "server summaries" `Quick test_server_summaries;
    Alcotest.test_case "runner telemetry snapshot" `Quick
      test_runner_telemetry_snapshot;
    Alcotest.test_case "telemetry isolated per run" `Quick
      test_runner_telemetry_isolated_per_run;
    Alcotest.test_case "observe_service allocates nothing" `Quick
      test_observe_service_allocates_nothing;
    Alcotest.test_case "observe_submit and observe_complete allocate nothing"
      `Quick test_observe_submit_complete_allocate_nothing;
  ]
