(* The shdisk-sim command line on bad flag values and unwritable output
   paths: a clear error naming the flag or path, never an uncaught
   exception or a silent accept. *)

let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The CLI is built next to this test binary (see test/dune). *)
let exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "shdisk_sim.exe" ]

(* Runs the CLI with [args]; returns the exit status and stderr. *)
let run_cli args =
  let err = Filename.temp_file "cli_test" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let status =
        Sys.command
          (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote exe)
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote err))
      in
      (status, read_file err))

let test_non_positive_counts_rejected () =
  check_bool "CLI binary built" true (Sys.file_exists exe);
  List.iter
    (fun (flag, args) ->
      let what = String.concat " " args in
      let status, stderr = run_cli args in
      check_bool (what ^ ": non-zero exit") true (status <> 0);
      check_bool (what ^ ": stderr names " ^ flag) true (contains stderr flag);
      check_bool (what ^ ": no uncaught exception") false
        (contains stderr "exception" || contains stderr "Fatal error"))
    [
      ("--requests", [ "run"; "fig6-stream"; "--requests"; "0" ]);
      ("--requests", [ "run"; "fig6-stream"; "--requests=-5" ]);
      ("--jobs", [ "run"; "fig6"; "--quick"; "--jobs"; "0" ]);
      ("--jobs", [ "run"; "fig6"; "--quick"; "--jobs=-4" ]);
      ("--budget", [ "explore"; "--budget"; "0" ]);
      ("--budget", [ "explore"; "--budget=-3" ]);
      ("--from", [ "trace-report"; "t.jsonl"; "--from"; "nan" ]);
      ("--to", [ "trace-report"; "t.jsonl"; "--to"; "nan" ]);
      ("--to", [ "trace-report"; "t.jsonl"; "--from"; "100"; "--to"; "50" ]);
      ("--minutes", [ "run"; "fig6"; "--quick"; "--minutes"; "nan" ]);
      ("--minutes", [ "run"; "fig6"; "--quick"; "--minutes"; "0" ]);
    ]

(* Every output path is opened before the run: a path under a regular
   file cannot be created, and must fail with a message naming it. *)
let test_unwritable_outputs_rejected () =
  check_bool "CLI binary built" true (Sys.file_exists exe);
  let file = Filename.temp_file "cli_test" ".dir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let bad name = Filename.concat file name in
      List.iter
        (fun args ->
          let what = String.concat " " args in
          let path = List.nth args (List.length args - 1) in
          let status, stderr = run_cli args in
          check_bool (what ^ ": non-zero exit") true (status <> 0);
          check_bool (what ^ ": stderr names the path") true
            (contains stderr path);
          check_bool (what ^ ": no uncaught exception") false
            (contains stderr "exception" || contains stderr "Fatal error"))
        [
          [ "run"; "fig6"; "--quick"; "--csv"; bad "x.csv" ];
          [ "run"; "fig6"; "--quick"; "--metrics-json"; bad "m.json" ];
          [ "run"; "fig6"; "--quick"; "--telemetry-json"; bad "t.json" ];
          [ "run"; "fig6"; "--quick"; "--trace-jsonl"; bad "t.jsonl" ];
          [ "run"; "fig6"; "--quick"; "--trace"; bad "t.json" ];
          [ "trace"; "--out"; bad "trace.txt" ];
        ])

(* Traced runs of a figure share one sink, so [--jobs] must not change
   the trace: the JSONL files of [--jobs 2] and [--jobs 1] are
   byte-equal. *)
let test_jobs_trace_identical () =
  let trace jobs =
    let path = Filename.temp_file "cli_test" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let status, stderr =
          run_cli
            [ "run"; "fig6"; "--quick"; "--jobs"; string_of_int jobs;
              "--trace-jsonl"; path ]
        in
        check_bool (Printf.sprintf "--jobs %d: exit 0 (%s)" jobs stderr) true
          (status = 0);
        read_file path)
  in
  let serial = trace 1 in
  check_bool "a non-empty trace" true (String.length serial > 0);
  check_bool "--jobs 2 trace == --jobs 1 trace" true
    (String.equal serial (trace 2))

let suite =
  [
    Alcotest.test_case "non-positive --jobs and --requests rejected" `Quick
      test_non_positive_counts_rejected;
    Alcotest.test_case "unwritable output paths rejected" `Quick
      test_unwritable_outputs_rejected;
    Alcotest.test_case "--jobs leaves the trace unchanged" `Quick
      test_jobs_trace_identical;
  ]
