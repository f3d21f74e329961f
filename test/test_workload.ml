(* Workload: trace structure, generators' calibration targets,
   serialization. *)

open Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let record time file_set op demand =
  {
    Trace.time;
    request = { Sharedfs.Request.op; file_set; path_hash = 0; client = 0 };
    demand;
  }

(* --- Trace --- *)

let test_trace_sorts_records () =
  let t =
    Trace.create ~duration:10.0
      [
        record 5.0 "b" Sharedfs.Request.Stat 1.0;
        record 1.0 "a" Sharedfs.Request.Stat 1.0;
        record 3.0 "a" Sharedfs.Request.Stat 1.0;
      ]
  in
  let times = Array.to_list (Array.map (fun r -> r.Trace.time) (Trace.records t)) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 3.0; 5.0 ] times;
  check_int "length" 3 (Trace.length t);
  Alcotest.(check (list string)) "file sets in appearance order" [ "a"; "b" ]
    (Trace.file_sets t)

let test_trace_validation () =
  Alcotest.check_raises "late record"
    (Invalid_argument "Trace.create: record at 11 outside [0, 10]") (fun () ->
      ignore
        (Trace.create ~duration:10.0
           [ record 11.0 "a" Sharedfs.Request.Stat 1.0 ]));
  Alcotest.check_raises "bad demand"
    (Invalid_argument "Trace.create: non-positive demand") (fun () ->
      ignore
        (Trace.create ~duration:10.0 [ record 1.0 "a" Sharedfs.Request.Stat 0.0 ]))

let test_window_demand () =
  let t =
    Trace.create ~duration:10.0
      [
        record 1.0 "a" Sharedfs.Request.Open_file 2.0;
        record 2.0 "a" Sharedfs.Request.Open_file 2.0;
        record 5.0 "b" Sharedfs.Request.Open_file 4.0;
        record 9.0 "a" Sharedfs.Request.Open_file 2.0;
      ]
  in
  (* Open factor is 1.0, so effective demand = raw demand. *)
  let w = Trace.window_demand t ~lo:0.0 ~hi:5.0 in
  Alcotest.(check (list (pair string (float 1e-9)))) "first window"
    [ ("a", 4.0) ] w;
  let w = Trace.window_demand t ~lo:5.0 ~hi:10.0 in
  Alcotest.(check (list (pair string (float 1e-9)))) "second window"
    [ ("a", 2.0); ("b", 4.0) ] w

let test_counts_and_skew () =
  let t =
    Trace.create ~duration:10.0
      [
        record 1.0 "a" Sharedfs.Request.Stat 1.0;
        record 2.0 "a" Sharedfs.Request.Stat 1.0;
        record 3.0 "a" Sharedfs.Request.Stat 1.0;
        record 4.0 "b" Sharedfs.Request.Stat 1.0;
      ]
  in
  Alcotest.(check (list (pair string int))) "counts" [ ("a", 3); ("b", 1) ]
    (Trace.counts_by_file_set t);
  check_float 1e-9 "skew" 3.0 (Trace.activity_skew t)

let test_merge () =
  let a = Trace.create ~duration:5.0 [ record 1.0 "a" Sharedfs.Request.Stat 1.0 ] in
  let b = Trace.create ~duration:8.0 [ record 0.5 "b" Sharedfs.Request.Stat 1.0 ] in
  let m = Trace.merge a b in
  check_int "records" 2 (Trace.length m);
  check_float 1e-9 "duration is max" 8.0 (Trace.duration m);
  let first = (Trace.records m).(0) in
  check_float 1e-9 "resorted" 0.5 first.Trace.time

let test_op_mix_sums_to_one () =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 Trace.op_mix in
  check_float 1e-9 "mass" 1.0 total

let test_sample_op_frequencies () =
  let rng = Desim.Rng.create 31 in
  let stats = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Trace.sample_op rng = Sharedfs.Request.Stat then incr stats
  done;
  check_float 0.02 "stat fraction" 0.38 (float_of_int !stats /. float_of_int n)

(* --- Synthetic --- *)

let small_synth =
  { Synthetic.default_config with Synthetic.file_sets = 50; requests = 5_000 }

let test_synthetic_counts () =
  let t = Synthetic.generate small_synth in
  check_int "exact request count" 5_000 (Trace.length t);
  check_float 1e-9 "duration" 10_000.0 (Trace.duration t);
  check_bool "most sets appear" true (List.length (Trace.file_sets t) > 40)

let test_synthetic_deterministic () =
  let a = Synthetic.generate small_synth in
  let b = Synthetic.generate small_synth in
  check_bool "same trace" true
    (Trace.counts_by_file_set a = Trace.counts_by_file_set b)

let test_synthetic_weights_normalized () =
  let w = Synthetic.weights small_synth in
  check_int "one per set" 50 (List.length w);
  let total = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 w in
  check_float 1e-9 "normalized" 1.0 total

let test_synthetic_cubic_skew () =
  (* Cubic weights: the top set should dominate the bottom set by a
     large factor. *)
  let t =
    Synthetic.generate
      { small_synth with Synthetic.requests = 50_000 }
  in
  check_bool "heavy skew" true (Trace.activity_skew t > 10.0)

let test_synthetic_validation () =
  Alcotest.check_raises "requests"
    (Invalid_argument "Synthetic.generate: requests must be positive")
    (fun () ->
      ignore (Synthetic.generate { small_synth with Synthetic.requests = 0 }))

(* --- Dfs_like --- *)

let small_dfs =
  { Dfs_like.default_config with Dfs_like.requests = 20_000 }

let test_dfs_counts () =
  let t = Dfs_like.generate small_dfs in
  check_int "exact request count" 20_000 (Trace.length t);
  check_int "21 file sets" 21 (List.length (Trace.file_sets t));
  check_float 1e-9 "one hour" 3600.0 (Trace.duration t)

let test_dfs_skew_matches_paper () =
  (* The most active set must exceed the least by roughly the
     configured 120x (paper: "more than one hundred times"). *)
  let t = Dfs_like.generate { small_dfs with Dfs_like.requests = 112_590 } in
  let skew = Trace.activity_skew t in
  check_bool "paper skew" true (skew > 60.0 && skew < 400.0)

let test_dfs_base_weights () =
  let w = Dfs_like.base_weights small_dfs in
  check_int "21 weights" 21 (List.length w);
  let values = List.map snd w in
  let mx = List.fold_left Float.max 0.0 values in
  let mn = List.fold_left Float.min 1.0 values in
  check_float 1e-6 "ratio is skew_ratio" 120.0 (mx /. mn)

let test_dfs_default_matches_paper_scale () =
  let c = Dfs_like.default_config in
  check_int "112,590 requests" 112_590 c.Dfs_like.requests;
  check_int "21 file sets" 21 c.Dfs_like.file_sets;
  check_float 1e-9 "one hour" 3600.0 c.Dfs_like.duration

(* Every bad field is rejected when the stream is built, NaN included,
   never mid-run (where a prefetched stream would fail on another
   domain). *)
let test_dfs_validation () =
  let rejects field what cfg =
    Alcotest.check_raises field
      (Invalid_argument ("Dfs_like.generate: " ^ what))
      (fun () -> ignore (Dfs_like.stream cfg))
  in
  let c = small_dfs in
  rejects "duration NaN" "duration must be positive and finite"
    { c with Dfs_like.duration = nan };
  rejects "duration infinite" "duration must be positive and finite"
    { c with Dfs_like.duration = infinity };
  rejects "slot_seconds NaN" "slot_seconds must be positive and finite"
    { c with Dfs_like.slot_seconds = nan };
  rejects "skew_ratio NaN" "skew_ratio must be finite and >= 1"
    { c with Dfs_like.skew_ratio = nan };
  rejects "burst_multiplier NaN" "burst_multiplier must be finite and >= 1"
    { c with Dfs_like.burst_multiplier = nan };
  rejects "burst_fraction NaN" "burst_fraction must lie in [0, 1]"
    { c with Dfs_like.burst_fraction = nan };
  rejects "mean_demand zero" "mean_demand must be positive and finite"
    { c with Dfs_like.mean_demand = 0.0 };
  rejects "mean_demand NaN" "mean_demand must be positive and finite"
    { c with Dfs_like.mean_demand = nan };
  rejects "demand_shape zero" "demand_shape must be positive"
    { c with Dfs_like.demand_shape = 0 }

(* --- Trace_io --- *)

let test_io_round_trip () =
  let t = Synthetic.generate { small_synth with Synthetic.requests = 500 } in
  let t' = Trace_io.of_string (Trace_io.to_string t) in
  check_int "length" (Trace.length t) (Trace.length t');
  check_float 1e-6 "duration" (Trace.duration t) (Trace.duration t');
  check_bool "counts survive" true
    (Trace.counts_by_file_set t = Trace.counts_by_file_set t');
  check_float 1e-3 "demand survives" (Trace.total_demand t)
    (Trace.total_demand t')

let test_io_parse_errors () =
  (try
     ignore (Trace_io.of_string "1.0 fs open\n");
     Alcotest.fail "expected failure"
   with Failure msg ->
     check_bool "line number" true
       (String.length msg > 0 && String.contains msg '1'));
  try
    ignore (Trace_io.of_string "x fs open 3 0.5\n");
    Alcotest.fail "expected failure"
  with Failure _ -> ()

(* [nan] and [inf] parse as floats and pass every ordering check, so
   each field is rejected on its own, with its line, by every reader:
   the string parser, the file loader (which names the file) and the
   streaming reader. *)
let test_io_rejects_non_finite () =
  let cases =
    [
      ("nan time", "1.0 fs open 1 0 0.5\nnan fs open 1 0 0.5\n",
       "non-finite time at line 2");
      ("inf time", "inf fs open 1 0 0.5\n", "non-finite time at line 1");
      ("nan demand", "1.0 fs open 1 0 nan\n", "non-finite demand at line 1");
      ("inf demand", "# x\n1.0 fs open 1 0 inf\n",
       "non-finite demand at line 2");
      ("nan duration", "# duration: nan\n1.0 fs open 1 0 0.5\n",
       "non-finite duration at line 1");
      ("inf duration", "# duration: inf\n1.0 fs open 1 0 0.5\n",
       "non-finite duration at line 1");
    ]
  in
  List.iter
    (fun (name, text, why) ->
      Alcotest.check_raises (name ^ ": of_string")
        (Failure ("Trace_io.of_string: " ^ why))
        (fun () -> ignore (Trace_io.of_string text));
      let path = Filename.temp_file "shdisk_trace" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc text);
          Alcotest.check_raises (name ^ ": load")
            (Failure ("Trace_io.load: " ^ path ^ ": " ^ why))
            (fun () -> ignore (Trace_io.load ~path));
          Alcotest.check_raises (name ^ ": stream")
            (Failure ("Trace_io.stream: " ^ path ^ ": " ^ why))
            (fun () -> ignore (Trace_io.stream ~path))))
    cases

(* A trace or stream built in code meets the same checks. *)
let test_trace_rejects_non_finite () =
  let rejects name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let ok = [ record 1.0 "a" Sharedfs.Request.Stat 1.0 ] in
  rejects "nan duration" "Trace.create: duration must be positive and finite"
    (fun () -> Trace.create ~duration:Float.nan ok);
  rejects "inf duration" "Trace.create: duration must be positive and finite"
    (fun () -> Trace.create ~duration:Float.infinity ok);
  rejects "nan time" "Trace.create: record at nan outside [0, 10]" (fun () ->
      Trace.create ~duration:10.0
        [ record Float.nan "a" Sharedfs.Request.Stat 1.0 ]);
  rejects "nan demand" "Trace.create: non-positive demand" (fun () ->
      Trace.create ~duration:10.0
        [ record 1.0 "a" Sharedfs.Request.Stat Float.nan ]);
  rejects "inf demand" "Trace.create: non-positive demand" (fun () ->
      Trace.create ~duration:10.0
        [ record 1.0 "a" Sharedfs.Request.Stat Float.infinity ]);
  rejects "sorted: nan duration"
    "Trace.of_sorted_records: duration must be positive and finite" (fun () ->
      Trace.of_sorted_records ~duration:Float.nan ok);
  rejects "sorted: nan time"
    "Trace.of_sorted_records: record at nan outside [0, 10]" (fun () ->
      Trace.of_sorted_records ~duration:10.0
        [ record Float.nan "a" Sharedfs.Request.Stat 1.0 ]);
  rejects "sorted: nan demand" "Trace.of_sorted_records: non-positive demand"
    (fun () ->
      Trace.of_sorted_records ~duration:10.0
        [ record 1.0 "a" Sharedfs.Request.Stat Float.nan ]);
  rejects "stream: nan duration"
    "Stream.make: duration must be positive and finite" (fun () ->
      Stream.make ~duration:Float.nan ~total:0 ~file_sets:[]
        ~fresh:(fun () () -> None)
        ())

let test_io_comments_and_blank_lines () =
  let t =
    Trace_io.of_string
      "# duration: 100.0\n\n# a comment\n1.5 fs-a open 7 0.25\n"
  in
  check_int "one record" 1 (Trace.length t);
  check_float 1e-9 "duration from header" 100.0 (Trace.duration t)

let test_io_duration_inferred () =
  let t = Trace_io.of_string "2.5 fs-a stat 1 0.5\n7.5 fs-b stat 2 0.5\n" in
  check_float 1e-9 "inferred" 7.5 (Trace.duration t)

let test_io_file_round_trip () =
  let t = Synthetic.generate { small_synth with Synthetic.requests = 100 } in
  let path = Filename.temp_file "shdisk_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save t ~path;
      let t' = Trace_io.load ~path in
      check_int "length" (Trace.length t) (Trace.length t'))

let test_op_string_round_trip () =
  List.iter
    (fun op ->
      match Trace_io.op_of_string (Trace_io.op_to_string op) with
      | Some op' -> check_bool "round trip" true (op = op')
      | None -> Alcotest.fail "op did not round-trip")
    Sharedfs.Request.all_ops

let suite =
  [
    Alcotest.test_case "trace sorts" `Quick test_trace_sorts_records;
    Alcotest.test_case "trace validation" `Quick test_trace_validation;
    Alcotest.test_case "trace rejects non-finite" `Quick
      test_trace_rejects_non_finite;
    Alcotest.test_case "trace_io rejects non-finite" `Quick
      test_io_rejects_non_finite;
    Alcotest.test_case "window demand" `Quick test_window_demand;
    Alcotest.test_case "counts and skew" `Quick test_counts_and_skew;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "op mix mass" `Quick test_op_mix_sums_to_one;
    Alcotest.test_case "op frequencies" `Slow test_sample_op_frequencies;
    Alcotest.test_case "synthetic counts" `Quick test_synthetic_counts;
    Alcotest.test_case "synthetic deterministic" `Quick test_synthetic_deterministic;
    Alcotest.test_case "synthetic weights" `Quick test_synthetic_weights_normalized;
    Alcotest.test_case "synthetic cubic skew" `Slow test_synthetic_cubic_skew;
    Alcotest.test_case "synthetic validation" `Quick test_synthetic_validation;
    Alcotest.test_case "dfs counts" `Quick test_dfs_counts;
    Alcotest.test_case "dfs skew" `Slow test_dfs_skew_matches_paper;
    Alcotest.test_case "dfs base weights" `Quick test_dfs_base_weights;
    Alcotest.test_case "dfs paper scale" `Quick test_dfs_default_matches_paper_scale;
    Alcotest.test_case "dfs validation" `Quick test_dfs_validation;
    Alcotest.test_case "io round trip" `Quick test_io_round_trip;
    Alcotest.test_case "io parse errors" `Quick test_io_parse_errors;
    Alcotest.test_case "io comments" `Quick test_io_comments_and_blank_lines;
    Alcotest.test_case "io duration inferred" `Quick test_io_duration_inferred;
    Alcotest.test_case "io file round trip" `Quick test_io_file_round_trip;
    Alcotest.test_case "op string round trip" `Quick test_op_string_round_trip;
  ]
