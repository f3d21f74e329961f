(* Exact counts and an allocation budget for the engine's hot paths.

   Every count here is a pure function of the code and its seeds, so
   each is an exact gate: a change to hashing, to what the engine keeps
   pending or to how many events a request costs moves one of them.
   The allocation budget reads the engine domain's own minor words: on
   a multi-core host the stream's arrivals are generated on the helper
   domain and allocate there. *)

let check_int = Alcotest.(check int)

(* ANU addressing over 20,000 distinct names on a fresh 5-server
   instance of family seed 42: one probe per hash round tried. *)
let test_addressing_probes () =
  let anu =
    Placement.Anu.create
      ~family:(Hashlib.Hash_family.create ~seed:42)
      ~servers:(List.init 5 Sharedfs.Server_id.of_int)
      ()
  in
  let probes = ref 0 in
  for i = 0 to 19_999 do
    let _, rounds =
      Placement.Anu.locate_with_rounds anu (Printf.sprintf "file-set-%d" i)
    in
    probes := !probes + rounds
  done;
  check_int "probes for 20,000 lookups" 40_052 !probes

(* The engine's events and peak pending count per policy of the quick
   figure 6.  Lock leases wait in the cluster's lease ring, which keeps
   one timer pending however many leases are live. *)
let test_fig6_quick_counts () =
  let results = (Experiments.Figures.fig6 ~quick:true ()).results in
  Alcotest.(check (list (pair string int)))
    "peak pending events per policy"
    [
      ("simple-random", 5); ("round-robin", 5); ("prescient", 5); ("anu", 8);
    ]
    (List.map
       (fun (r : Experiments.Runner.result) ->
         (r.policy_name, r.sim_peak_pending))
       results);
  check_int "events over the figure" 91_038
    (List.fold_left
       (fun n (r : Experiments.Runner.result) -> n + r.sim_events)
       0 results)

(* The untraced twin of the record suite's traced budget: ANU on the
   figure-6 stream at 200,000 requests with no observer.  It measured
   14.0 minor words per request (6.9 per event), on one CPU and on
   two; one boxed float more per completion reads 16.0. *)
let test_untraced_stream () =
  Helper_wait.quiesce ();
  let run () =
    Experiments.Runner.run_stream Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~stream:(Experiments.Figures.dfs_stream ~requests:200_000)
      ()
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  check_int "every request served" r.submitted r.completed;
  check_int "peak pending events" 14 r.sim_peak_pending;
  let per_request = words /. float_of_int r.submitted in
  if per_request > 15.0 then
    Alcotest.failf "%.2f minor words per untraced request, budget 15"
      per_request

(* A run's memory does not grow with file sets times a latency sketch:
   the same short DFS stream over 21 and over 2,000 file sets.  Words
   are minor plus direct-major allocations, read after a minor
   collection, since [Gc.quick_stat]'s counts advance only at
   collections.  One run-wide sketch measured 2,329 words per added
   file set (2,331 on one CPU): the time-zero placement, the delegate
   rounds' sweeps over every name and the per-set summaries.  One
   1,400-bin sketch per file set, merged at the end, read 5,156. *)
let words_of_run ~file_sets =
  let cfg = Workload.Dfs_like.default_config in
  let requests = 4_000 in
  let factor =
    float_of_int requests /. float_of_int cfg.Workload.Dfs_like.requests
  in
  let stream =
    Workload.Dfs_like.stream
      {
        cfg with
        Workload.Dfs_like.requests;
        file_sets;
        mean_demand = cfg.Workload.Dfs_like.mean_demand /. factor;
      }
  in
  let allocated () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  in
  let before = allocated () in
  let r =
    Experiments.Runner.run_stream Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~stream ()
  in
  let words = allocated () -. before in
  check_int "every request served" r.submitted r.completed;
  words

let test_words_per_file_set () =
  Helper_wait.quiesce ();
  let few = words_of_run ~file_sets:21 in
  let many = words_of_run ~file_sets:2_000 in
  let per_set = (many -. few) /. float_of_int (2_000 - 21) in
  if per_set > 3_000.0 then
    Alcotest.failf "%.0f words per added file set, budget 3,000" per_set

let suite =
  [
    Alcotest.test_case "anu addressing probes" `Quick test_addressing_probes;
    Alcotest.test_case "fig6 quick events and peak pending" `Quick
      test_fig6_quick_counts;
    Alcotest.test_case "untraced stream: peak pending and allocation" `Quick
      test_untraced_stream;
    Alcotest.test_case "words per added file set" `Quick
      test_words_per_file_set;
  ]
