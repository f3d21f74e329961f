(* Forensics: span joining and latency attribution on a hand-built
   trace, windowing, entity extraction from violation prose, and the
   end-to-end acceptance run — a partition-mix chaos campaign with an
   injected violation whose report must name the implicated server and
   the preceding fence/fault events, byte-reproducibly. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let with_temp_file f =
  let path = Filename.temp_file "forensics_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_events path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Obs.Event.to_jsonl e);
          output_char oc '\n')
        events)

let span_begin ?parent ?server ?file_set ?(attrs = []) ~time ~id ~name ~cat
    () =
  Obs.Event.Span_begin
    { time; id; parent; name; cat; server; file_set; epoch = None; attrs }

let span_end ?server ?outcome ~time ~id ~name ~cat () =
  Obs.Event.Span_end { time; id; name; cat; server; outcome }

(* A request as the cluster records it: a span whose begin names the
   file set (and carries the client and op), whose end names the
   server; [stages] go in between. *)
let request ~id ~file_set ~server ~submitted ~completed stages =
  (span_begin ~time:submitted ~id ~name:"request" ~cat:"request" ~file_set
     ~attrs:Obs.Event.[ Client 0; Op "open" ]
     ()
  :: stages)
  @ [ span_end ~time:completed ~id ~name:"request" ~cat:"request" ~server () ]

(* Three completed requests — one queued 0.4 s and served 0.6 s, one
   that waited 0.5 s out a move, one served straight away — one request
   lost to a crash, plus the operational events a violation's causal
   slice must pick out. *)
let synthetic_events =
  request ~id:1 ~file_set:"fs-a" ~server:3 ~submitted:0.0 ~completed:1.0
    [
      span_begin ~time:0.0 ~id:2 ~parent:1 ~name:"queue" ~cat:"request"
        ~server:3 ();
      span_end ~time:0.4 ~id:2 ~name:"queue" ~cat:"request" ~server:3 ();
      span_begin ~time:0.4 ~id:3 ~parent:1 ~name:"service" ~cat:"request"
        ~server:3 ();
      span_end ~time:1.0 ~id:3 ~name:"service" ~cat:"request" ~server:3 ();
    ]
  @ request ~id:6 ~file_set:"fs-b" ~server:1 ~submitted:2.0 ~completed:3.0
      [
        span_begin ~time:2.0 ~id:4 ~parent:6 ~name:"buffered" ~cat:"request"
          ~file_set:"fs-b" ();
        span_end ~time:2.5 ~id:4 ~name:"buffered" ~cat:"request" ~server:1 ();
      ]
  @ request ~id:7 ~file_set:"fs-a" ~server:3 ~submitted:3.0 ~completed:3.5 []
  @ [
    (* a request span that never closes: crash-lost work *)
    span_begin ~time:4.0 ~id:5 ~name:"request" ~cat:"request"
      ~file_set:"fs-a" ();
    Obs.Event.Fault
      {
        time = 5.0;
        server = Some 3;
        file_set = None;
        fault = Obs.Event.Server_crash;
      };
    Obs.Event.Fence { time = 5.1; server = 3; action = "fenced" };
    (* noise touching a different server: must stay out of the slice *)
    Obs.Event.Fence { time = 5.2; server = 0; action = "fenced" };
    Obs.Event.Invariant_violation
      {
        time = 6.0;
        what = "file set fs-a owned by failed server 3";
      };
  ]

let load_synthetic f =
  with_temp_file (fun path ->
      write_events path synthetic_events;
      match Experiments.Forensics.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t -> f t)

let test_attribution_and_ranking () =
  load_synthetic (fun t ->
      check_int "all events loaded"
        (List.length synthetic_events)
        (Experiments.Forensics.length t);
      let r = Experiments.Forensics.analyze ~top:2 t in
      let a = r.Experiments.Forensics.attribution in
      check_int "completed request spans" 3 a.Experiments.Forensics.requests;
      Alcotest.(check (float 1e-9))
        "request seconds" 2.5 a.Experiments.Forensics.request_seconds;
      check_int "crash-lost span counted" 1 a.Experiments.Forensics.unclosed;
      Alcotest.(check (float 1e-9))
        "queue seconds" 0.4 a.Experiments.Forensics.queue_seconds;
      Alcotest.(check (float 1e-9))
        "service seconds" 0.6 a.Experiments.Forensics.service_seconds;
      Alcotest.(check (float 1e-9))
        "buffered seconds" 0.5 a.Experiments.Forensics.buffered_seconds;
      (match r.Experiments.Forensics.servers with
      | s1 :: _ ->
        check_int "hottest server" 3 s1.Experiments.Forensics.server;
        check_int "its completions" 2 s1.Experiments.Forensics.completions;
        (* latency is end - begin of each request span: (1.0 + 0.5) / 2 *)
        Alcotest.(check (float 1e-9))
          "its mean latency" 0.75 s1.Experiments.Forensics.mean_latency
      | [] -> Alcotest.fail "no hot servers");
      match r.Experiments.Forensics.file_sets with
      | f1 :: _ ->
        Alcotest.(check string)
          "hottest file set" "fs-a" f1.Experiments.Forensics.file_set
      | [] -> Alcotest.fail "no hot file sets")

let test_windowing () =
  load_synthetic (fun t ->
      (* A window ending before the crash excludes the unclosed span,
         the faults and the violation. *)
      let r = Experiments.Forensics.analyze ~until:3.9 t in
      let a = r.Experiments.Forensics.attribution in
      check_int "request spans inside window" 3
        a.Experiments.Forensics.requests;
      check_int "unclosed span outside window" 0
        a.Experiments.Forensics.unclosed;
      check_int "no faults in window" 0
        (List.length r.Experiments.Forensics.faults);
      check_int "no violations in window" 0
        (List.length r.Experiments.Forensics.violations);
      (* A window starting after the requests keeps only the tail. *)
      let r = Experiments.Forensics.analyze ~from_:4.0 t in
      check_int "no completed spans late" 0
        r.Experiments.Forensics.attribution.Experiments.Forensics.requests;
      check_int "late window sees the violation" 1
        (List.length r.Experiments.Forensics.violations))

let test_explain_violation () =
  load_synthetic (fun t ->
      let r = Experiments.Forensics.analyze t in
      match r.Experiments.Forensics.violations with
      | [ v ] ->
        Alcotest.(check (list int))
          "implicated server parsed" [ 3 ] v.Experiments.Forensics.servers;
        Alcotest.(check (list string))
          "implicated file set parsed" [ "fs-a" ]
          v.Experiments.Forensics.file_sets;
        let lines =
          List.map
            (fun e -> e.Experiments.Forensics.line)
            v.Experiments.Forensics.slice
        in
        check_bool "slice names the crash" true
          (List.exists
             (fun l -> l = "fault server_crash server=3")
             lines);
        check_bool "slice names the fence" true
          (List.exists (fun l -> l = "fence server=3 action=fenced") lines);
        check_bool "unrelated server stays out" true
          (not
             (List.exists (fun l -> l = "fence server=0 action=fenced") lines))
      | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs))

let test_load_reports_bad_line () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc (Obs.Event.to_jsonl (List.hd synthetic_events));
      output_string oc "\n{not json\n";
      close_out oc;
      match Experiments.Forensics.load path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error msg ->
        check_bool "error names the line" true (contains msg "line 2"))

(* A trace written before requests became spans-only still carries
   [request_submit]/[request_complete] lines.  Loading it fails on the
   first such line with the decoder's message, and the CLI turns that
   into exit status 1 rather than an uncaught exception. *)
let old_trace_lines =
  [
    {|{"type":"span_begin","time":0.5,"id":2,"parent":null,"name":"request","cat":"request","server":null,"file_set":"fs-a","epoch":null}|};
    {|{"type":"request_submit","time":0.5,"file_set":"fs-a","op":"open","client":2}|};
    {|{"type":"span_end","time":0.75,"id":2,"name":"request","cat":"request","server":3,"outcome":null}|};
  ]

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_old_trace_fails_cleanly () =
  with_temp_file (fun path ->
      write_lines path old_trace_lines;
      (match Experiments.Forensics.load path with
      | Ok _ -> Alcotest.fail "expected a parse error"
      | Error msg ->
        Alcotest.(check string)
          "decoder message with file and line"
          (path ^ {|, line 2: unknown event type "request_submit"|})
          msg);
      (* The CLI: exit status 1, the same message, no exception. *)
      (* The CLI is built next to this test binary (see test/dune). *)
      let exe =
        List.fold_left Filename.concat
          (Filename.dirname Sys.executable_name)
          [ Filename.parent_dir_name; "bin"; "shdisk_sim.exe" ]
      in
      check_bool "CLI binary built" true (Sys.file_exists exe);
      let err = Filename.temp_file "forensics_test" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove err)
        (fun () ->
          let status =
            Sys.command
              (Printf.sprintf "%s trace-report %s >/dev/null 2>%s"
                 (Filename.quote exe) (Filename.quote path)
                 (Filename.quote err))
          in
          check_int "trace-report exits 1" 1 status;
          let stderr = read_file err in
          check_bool "stderr names the old event type and line" true
            (contains stderr {|line 2: unknown event type "request_submit"|});
          check_bool "no uncaught exception" false
            (contains stderr "exception" || contains stderr "Fatal error")))

(* On a traced fault-free run, forensics counts every completed request
   once: the attribution and the per-server ranking both read the
   closed request spans. *)
let test_forensics_counts_completions () =
  with_temp_file (fun path ->
      let trace =
        Workload.Synthetic.generate
          {
            Workload.Synthetic.default_config with
            Workload.Synthetic.file_sets = 40;
            requests = 3_000;
            duration = 1_500.0;
          }
      in
      let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.jsonl_file path ] () in
      let r =
        Experiments.Runner.run Experiments.Scenario.default
          (Experiments.Scenario.Anu Placement.Anu.default_config)
          ~trace ~obs ()
      in
      Obs.Ctx.close obs;
      match Experiments.Forensics.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t ->
        let report = Experiments.Forensics.analyze ~top:max_int t in
        let completed = r.Experiments.Runner.completed in
        check_int "attribution counts every completion" completed
          report.Experiments.Forensics.attribution
            .Experiments.Forensics.requests;
        check_int "no unclosed request spans" 0
          report.Experiments.Forensics.attribution
            .Experiments.Forensics.unclosed;
        check_int "hot-server completions sum to the same" completed
          (List.fold_left
             (fun acc (h : Experiments.Forensics.hot_server) ->
               acc + h.Experiments.Forensics.completions)
             0 report.Experiments.Forensics.servers);
        check_int "hot-file-set completions sum to the same" completed
          (List.fold_left
             (fun acc (h : Experiments.Forensics.hot_file_set) ->
               acc + h.Experiments.Forensics.completions)
             0 report.Experiments.Forensics.file_sets))

(* --- the acceptance run --- *)

(* A partition-mix chaos campaign traced to JSONL, with one injected
   violation implicating server 0 (the delegate that loses its cluster
   link at 0.22*duration) fired once past 0.7*duration.  The report
   must parse the server back out and its causal slice must surface
   the preceding partition/fence history — and the whole pipeline must
   be byte-reproducible at a fixed seed. *)
let chaos_trace =
  Workload.Synthetic.generate
    {
      Workload.Synthetic.default_config with
      Workload.Synthetic.seed = 42;
      requests = Workload.Synthetic.default_config.Workload.Synthetic.requests / 10;
      file_sets = Workload.Synthetic.default_config.Workload.Synthetic.file_sets / 5;
    }

let run_chaos_to ~path =
  let duration = Workload.Trace.duration chaos_trace in
  let plan = Fault.Plan.partition_mix ~seed:42 ~duration in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.jsonl_file path ] () in
  let sim = ref None in
  let fired = ref false in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace:chaos_trace ~obs ~faults:plan
      ~on_sim_created:(fun s -> sim := Some s)
      ~invariant_extra:(fun () ->
        match !sim with
        | Some s when (not !fired) && Desim.Sim.now s > 0.7 *. duration ->
          fired := true;
          [ "partitioned server 0 is not fenced at the disk" ]
        | _ -> [])
      ()
  in
  Obs.Ctx.close obs;
  check_bool "the injected violation fired" true !fired;
  check_bool "runner recorded it" true
    (List.exists
       (fun (_, what) -> what = "partitioned server 0 is not fenced at the disk")
       r.Experiments.Runner.violations)

let test_chaos_violation_report () =
  with_temp_file (fun path ->
      run_chaos_to ~path;
      match Experiments.Forensics.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok t ->
        let r = Experiments.Forensics.analyze t in
        check_bool "requests attributed" true
          (r.Experiments.Forensics.attribution.Experiments.Forensics.requests
          > 0);
        (match r.Experiments.Forensics.violations with
        | [ v ] ->
          Alcotest.(check (list int))
            "server 0 implicated" [ 0 ] v.Experiments.Forensics.servers;
          check_bool "causal slice non-empty" true
            (v.Experiments.Forensics.slice <> []);
          let lines =
            List.map
              (fun e -> e.Experiments.Forensics.line)
              v.Experiments.Forensics.slice
          in
          check_bool "slice surfaces server 0 fault/fence history" true
            (List.exists
               (fun l ->
                 contains l "server=0"
                 && (contains l "partition" || contains l "fence"
                    || contains l "fault"))
               lines)
        | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
        (* the fault timeline must carry the plan's partition events *)
        check_bool "timeline has fault events" true
          (r.Experiments.Forensics.faults <> []))

let test_chaos_report_byte_reproducible () =
  with_temp_file (fun path_a ->
      with_temp_file (fun path_b ->
          run_chaos_to ~path:path_a;
          run_chaos_to ~path:path_b;
          check_bool "trace bytes identical across runs" true
            (String.equal (read_file path_a) (read_file path_b));
          let report path =
            match Experiments.Forensics.load path with
            | Error msg -> Alcotest.failf "load failed: %s" msg
            | Ok t ->
              Format.asprintf "%a" Experiments.Forensics.pp_report
                (Experiments.Forensics.analyze ~top:3 t)
          in
          (* paths differ in the header, so compare with it stripped *)
          let body s =
            match String.index_opt s '\n' with
            | Some i -> String.sub s (i + 1) (String.length s - i - 1)
            | None -> s
          in
          check_bool "rendered reports identical" true
            (String.equal (body (report path_a)) (body (report path_b)))))

let suite =
  [
    Alcotest.test_case "attribution and ranking" `Quick
      test_attribution_and_ranking;
    Alcotest.test_case "windowing" `Quick test_windowing;
    Alcotest.test_case "explain violation" `Quick test_explain_violation;
    Alcotest.test_case "load reports bad line" `Quick test_load_reports_bad_line;
    Alcotest.test_case "old request_submit trace fails cleanly" `Quick
      test_old_trace_fails_cleanly;
    Alcotest.test_case "forensics counts every completion" `Quick
      test_forensics_counts_completions;
    Alcotest.test_case "chaos violation report" `Slow
      test_chaos_violation_report;
    Alcotest.test_case "chaos report byte-reproducible" `Slow
      test_chaos_report_byte_reproducible;
  ]
