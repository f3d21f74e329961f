(* The shdisk-sim command line on bad flag values: a clear usage error
   naming the flag, never an uncaught exception or a silent accept. *)

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
      let status, stderr = run_cli ("run" :: args) in
      check_bool (what ^ ": non-zero exit") true (status <> 0);
      check_bool (what ^ ": stderr names " ^ flag) true (contains stderr flag);
      check_bool (what ^ ": no uncaught exception") false
        (contains stderr "exception" || contains stderr "Fatal error"))
    [
      ("--requests", [ "fig6-stream"; "--requests"; "0" ]);
      ("--requests", [ "fig6-stream"; "--requests=-5" ]);
      ("--jobs", [ "fig6"; "--quick"; "--jobs"; "0" ]);
      ("--jobs", [ "fig6"; "--quick"; "--jobs=-4" ]);
    ]

let suite =
  [
    Alcotest.test_case "non-positive --jobs and --requests rejected" `Quick
      test_non_positive_counts_rejected;
  ]
