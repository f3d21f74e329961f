(* shdisk-sim: reproduce the experiments of Wu & Burns, "Handling
   Heterogeneity in Shared-Disk File Systems" (SC'03), from the command
   line.

     shdisk-sim list
     shdisk-sim run fig6 [--quick] [--jobs N] [--csv out.csv] [--summary]
                         [--trace out.json] [--trace-jsonl out.jsonl]
                         [--metrics]
     shdisk-sim trace --kind dfs --out trace.txt *)

open Cmdliner

let setup_logs level =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* --verbosity, shared by every command that runs simulations.  The
   term also installs the reporter, so evaluating it is the logging
   setup. *)
let verbosity_t =
  let levels =
    [
      ("quiet", None);
      ("error", Some Logs.Error);
      ("warning", Some Logs.Warning);
      ("info", Some Logs.Info);
      ("debug", Some Logs.Debug);
    ]
  in
  let arg =
    Arg.(
      value
      & opt (enum levels) (Some Logs.Warning)
      & info [ "verbosity" ] ~docv:"LEVEL"
          ~doc:"Log level: quiet, error, warning, info or debug.")
  in
  Term.(const setup_logs $ arg)

let list_cmd =
  let doc = "List the reproducible experiments." in
  let run () =
    List.iter print_endline (Experiments.Figures.all_ids @ [ "fig6-stream" ])
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* The one rendering for every "unknown name" error path — experiment
   ids, fault plans, anything resolved through a registry — so each
   resolver lists exactly the names it accepts and the messages cannot
   drift apart in style. *)
let unknown_name ~kind ~name ~known =
  Printf.sprintf "unknown %s %S; registered %ss are: %s" kind name kind
    (String.concat ", " known)

(* A strictly positive integer option value, such as a domain or
   request count.  Cmdliner rejects anything else with a usage error
   naming the option, before any simulation starts. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Observability options of `run': where to write traces and whether
   to collect and print metrics. *)
type obs_options = {
  trace_chrome : string option;
  trace_jsonl : string option;
  metrics : bool;
  metrics_json : string option;
  telemetry_json : string option;
}

let obs_options_t =
  let trace_chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event file (load it in chrome://tracing \
             or ui.perfetto.dev).")
  in
  let trace_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-jsonl" ] ~docv:"FILE"
          ~doc:"Write the structured trace as one JSON event per line.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Collect and print the metrics snapshot of every run.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:
            "Collect metrics and write every run's snapshot to FILE as one \
             JSON document (implies metric collection).")
  in
  let telemetry_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-json" ] ~docv:"FILE"
          ~doc:
            "Collect per-entity telemetry (per-server occupancy, queue \
             depth and latency series, request rate, heavy-hitter file \
             sets) and write every run's snapshot to FILE as JSON.")
  in
  Term.(
    const (fun trace_chrome trace_jsonl metrics metrics_json telemetry_json ->
        { trace_chrome; trace_jsonl; metrics; metrics_json; telemetry_json })
    $ trace_chrome $ trace_jsonl $ metrics $ metrics_json $ telemetry_json)

let obs_ctx_of_options opts =
  let sinks =
    List.filter_map
      (fun x -> x)
      [
        Option.map Obs.Sink.chrome_file opts.trace_chrome;
        Option.map Obs.Sink.jsonl_file opts.trace_jsonl;
      ]
  in
  let metrics =
    if opts.metrics || opts.metrics_json <> None then
      Some (Obs.Metrics.create ())
    else None
  in
  let telemetry =
    Option.map (fun _ -> Obs.Telemetry.create ()) opts.telemetry_json
  in
  if sinks = [] && metrics = None && telemetry = None then None
  else Some (Obs.Ctx.create ~sinks ?metrics ?telemetry ())

(* Output files are opened before the run, so a bad path fails at once
   with a message naming it instead of escaping as an exception after
   the whole run.  Logging must be set up first. *)
let open_output ~what path =
  try (path, open_out path)
  with Sys_error msg ->
    Logs.err (fun m -> m "cannot open %s file: %s" what msg);
    exit 1

let write_output (path, oc) contents =
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  Printf.printf "wrote %s\n" path

(* [--metrics-json] / [--telemetry-json] payload: one entry per run, so
   multi-policy figures keep their runs distinguishable. *)
let write_runs_json output figure ~field_name ~snapshot =
  let runs =
    List.filter_map
      (fun r ->
        Option.map
          (fun j ->
            Obs.Json.Obj
              [
                ("label", Obs.Json.Str r.Experiments.Runner.label);
                ("policy", Obs.Json.Str r.Experiments.Runner.policy_name);
                (field_name, j);
              ])
          (snapshot r))
      figure.Experiments.Figures.results
  in
  write_output output
    (Obs.Json.to_string (Obs.Json.Obj [ ("runs", Obs.Json.List runs) ]) ^ "\n")

let run_cmd =
  let doc = "Run one experiment and print its series and summary." in
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id (see `list').")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scale the workload down ~10x.")
  in
  let summary =
    Arg.(value & flag & info [ "summary" ] ~doc:"Print only summary lines.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the series as CSV.")
  in
  let minutes =
    Arg.(
      value & opt float 60.0
      & info [ "minutes" ] ~docv:"M" ~doc:"Cap table rows at M minutes.")
  in
  let jobs =
    Arg.(
      value & opt positive_int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Fan the experiment's independent simulations out over N \
             domains.  Output is bit-identical to --jobs 1; only \
             wall-clock time changes.")
  in
  let requests =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Scale the workload to N requests (fig6-stream only).  Offered \
             load is held constant, so only memory and wall time change \
             with the count.")
  in
  let run () id quick jobs summary csv minutes requests obs_opts =
    let build =
      if id = "fig6-stream" then
        Some (fun ?obs () -> Experiments.Figures.fig6_stream ?requests ?obs ())
      else begin
        (match requests with
        | Some _ ->
          Logs.err (fun m ->
              m "--requests applies only to fig6-stream (got %s)" id);
          exit 1
        | None -> ());
        Option.map
          (fun
            (b :
              ?quick:bool ->
              ?jobs:int ->
              ?obs:Obs.Ctx.t ->
              unit ->
              Experiments.Figures.figure)
            ?obs
            ()
          -> b ~quick ~jobs ?obs ())
          (Experiments.Figures.by_id id)
      end
    in
    match build with
    | None ->
      Logs.err (fun m ->
          m "%s"
            (unknown_name ~kind:"experiment" ~name:id
               ~known:(Experiments.Figures.all_ids @ [ "fig6-stream" ])));
      exit 1
    | Some build ->
      let csv = Option.map (open_output ~what:"CSV") csv in
      let metrics_json =
        Option.map (open_output ~what:"metrics") obs_opts.metrics_json
      in
      let telemetry_json =
        Option.map (open_output ~what:"telemetry") obs_opts.telemetry_json
      in
      let ctx =
        try obs_ctx_of_options obs_opts
        with Sys_error msg ->
          Logs.err (fun m -> m "cannot open trace file: %s" msg);
          exit 1
      in
      let figure =
        Fun.protect
          ~finally:(fun () -> Option.iter Obs.Ctx.close ctx)
          (fun () -> build ?obs:ctx ())
      in
      if summary then
        Format.printf "%a@." Experiments.Report.pp_summary figure
      else
        Format.printf "%a@."
          (Experiments.Report.pp_figure ~max_minutes:minutes)
          figure;
      if obs_opts.metrics then
        List.iter
          (fun r ->
            match r.Experiments.Runner.metrics with
            | None -> ()
            | Some snapshot ->
              Format.printf "@.=== metrics: %s / %s ===@.%a"
                r.Experiments.Runner.label r.Experiments.Runner.policy_name
                Obs.Metrics.pp_snapshot snapshot)
          figure.Experiments.Figures.results;
      Option.iter
        (fun output ->
          write_runs_json output figure ~field_name:"metrics"
            ~snapshot:(fun r ->
              Option.map Obs.Metrics.snapshot_to_json
                r.Experiments.Runner.metrics))
        metrics_json;
      Option.iter
        (fun output ->
          write_runs_json output figure ~field_name:"telemetry"
            ~snapshot:(fun r ->
              Option.map Obs.Telemetry.snapshot_to_json
                r.Experiments.Runner.telemetry))
        telemetry_json;
      Option.iter
        (fun path -> Printf.printf "wrote Chrome trace %s\n" path)
        obs_opts.trace_chrome;
      Option.iter
        (fun path -> Printf.printf "wrote JSONL trace %s\n" path)
        obs_opts.trace_jsonl;
      Option.iter
        (fun output ->
          write_output output (Experiments.Report.figure_to_csv figure))
        csv
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ verbosity_t $ id $ quick $ jobs $ summary $ csv $ minutes
      $ requests $ obs_options_t)

let trace_cmd =
  let doc = "Generate a workload trace file." in
  let kind =
    Arg.(
      value
      & opt (enum [ ("dfs", `Dfs); ("synthetic", `Synthetic) ]) `Dfs
      & info [ "kind" ] ~docv:"KIND" ~doc:"dfs or synthetic.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let run kind out seed =
    setup_logs (Some Logs.Warning);
    let _, oc = open_output ~what:"trace" out in
    let trace =
      match kind with
      | `Dfs ->
        Workload.Dfs_like.generate
          { Workload.Dfs_like.default_config with seed }
      | `Synthetic ->
        Workload.Synthetic.generate
          { Workload.Synthetic.default_config with seed }
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Workload.Trace_io.to_string trace));
    Printf.printf "wrote %d records (%.0f s, %d file sets) to %s\n"
      (Workload.Trace.length trace)
      (Workload.Trace.duration trace)
      (List.length (Workload.Trace.file_sets trace))
      out
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ kind $ out $ seed)

let validate_cmd =
  let doc = "Verify the paper's headline claims against fresh runs." in
  let run () =
    let checks = Experiments.Validate.run () in
    Format.printf "%a@." Experiments.Validate.pp checks;
    if not (Experiments.Validate.all_passed checks) then exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ verbosity_t)

(* Options shared by `chaos' and `fsck' (fsck audits the ledger a
   chaos run leaves behind, so it takes the same knobs). *)
let chaos_seed_t =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Fault-plan and workload seed.  Equal seeds reproduce the run \
           byte for byte.")

let chaos_policy_t =
  let specs =
    [
      ("anu", Experiments.Scenario.Anu Placement.Anu.default_config);
      ("simple-random", Experiments.Scenario.Simple_random);
      ("round-robin", Experiments.Scenario.Round_robin);
      ( "round-robin-rebalance",
        Experiments.Scenario.Round_robin_rebalance );
      ("prescient", Experiments.Scenario.Prescient);
      ("consistent-hash", Experiments.Scenario.Consistent_hash);
    ]
  in
  Arg.(
    value
    & opt (enum specs) (Experiments.Scenario.Anu Placement.Anu.default_config)
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Placement policy under test: anu, simple-random, round-robin, \
           round-robin-rebalance (round-robin with the opt-in \
           post-recovery re-deal), prescient or consistent-hash.")

let chaos_duration_t =
  Arg.(
    value
    & opt (enum [ ("short", true); ("full", false) ]) false
    & info [ "duration" ] ~docv:"D"
        ~doc:"short (CI smoke, ~10x smaller workload) or full.")

let chaos_plan_t =
  (* Resolved through the library's plan registry rather than a
     hard-coded enum, so an unknown name reports exactly the plans that
     exist — and a mix added to the registry is picked up here with no
     CLI change. *)
  let plan_conv =
    let parse s =
      match Experiments.Chaos.plan_kind_of_name s with
      | Some kind -> Ok kind
      | None ->
        Error
          (`Msg
             (unknown_name ~kind:"fault plan" ~name:s
                ~known:Experiments.Chaos.plan_names))
    in
    let print ppf kind =
      let name, _ =
        List.find (fun (_, k) -> k = kind) Experiments.Chaos.plan_kinds
      in
      Format.pp_print_string ppf name
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt plan_conv `Default
    & info [ "plan" ] ~docv:"PLAN"
        ~doc:
          "Stock fault mix: default (crashes, report loss, mid-move \
           crashes, a disk stall), partition (the delegate loses the \
           cluster network mid-move, a second server loses its disk path, \
           one ledger append tears) or domain (correlated whole-rack \
           faults over the two-rack paper topology: rack0 is partitioned \
           and heals, then rack1 crashes whole and recovers, with the \
           domain-spread and collateral invariants armed).")

(* Every fault spec kind a plan can carry, straight from the library so
   --help can never drift from the implementation. *)
let fault_kinds_man =
  `S "FAULT SPEC KINDS"
  :: `P
       "A $(b,Fault.Plan) is a seed plus a list of fault specs; the stock \
        mixes above combine these.  Every kind a plan can schedule:"
  :: List.map
       (fun (name, desc) -> `I (Printf.sprintf "$(b,%s)" name, desc))
       Fault.Plan.spec_kinds

let chaos_cmd =
  let doc =
    "Run a seeded fault-injection campaign with continuous invariant \
     checking and print the survival summary."
  in
  let run () seed spec quick plan_kind =
    let summary = Experiments.Chaos.run ~quick ~plan_kind ~seed ~spec () in
    Format.printf "%a" Experiments.Chaos.pp summary;
    if not summary.Experiments.Chaos.survived then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc ~man:fault_kinds_man)
    Term.(
      const run $ verbosity_t $ chaos_seed_t $ chaos_policy_t
      $ chaos_duration_t $ chaos_plan_t)

let explore_cmd =
  let doc =
    "Sweep every disk-write crash point of a seeded faulty run: crash (or \
     tear) the whole cluster at each write, recover solely from the \
     shared-disk image, resume the surviving workload, and audit.  Exits 1 \
     on any violation; the report is byte-reproducible at a fixed seed."
  in
  let budget =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Probe at most N crash points, sampled reproducibly from the \
             full sweep (default: run every probe).")
  in
  let wide =
    Arg.(
      value & flag
      & info [ "wide" ]
          ~doc:
            "Use the larger nightly workload shape instead of the small \
             full-sweep one; pair with --budget.")
  in
  let run () seed spec plan_kind budget wide =
    let report =
      Experiments.Explore.sweep ?budget ~wide ~spec ~plan_kind ~seed ()
    in
    Format.printf "%a" Experiments.Explore.pp report;
    if not report.Experiments.Explore.survived then exit 1
  in
  Cmd.v (Cmd.info "explore" ~doc ~man:fault_kinds_man)
    Term.(
      const run $ verbosity_t $ chaos_seed_t $ chaos_policy_t $ chaos_plan_t
      $ budget $ wide)

let fsck_cmd =
  let doc =
    "Run a seeded chaos campaign, then replay the on-disk ownership ledger \
     and audit it against in-memory ownership."
  in
  let run () seed spec quick plan_kind =
    let summary = Experiments.Chaos.run ~quick ~plan_kind ~seed ~spec () in
    let r = summary.Experiments.Chaos.fsck in
    Format.printf "fsck: %d ledger record(s) replayed@."
      r.Sharedfs.Cluster.records;
    Format.printf
      "  torn during run: %d, repaired during run: %d, still torn: %d@."
      summary.Experiments.Chaos.torn_writes
      summary.Experiments.Chaos.torn_repaired r.Sharedfs.Cluster.torn_found;
    (match r.Sharedfs.Cluster.divergent with
    | [] -> Format.printf "  ledger and in-memory ownership agree@."
    | ds ->
      Format.printf "  %d divergence(s):@." (List.length ds);
      List.iter (fun d -> Format.printf "    %s@." d) ds);
    let ok = summary.Experiments.Chaos.survived && r.Sharedfs.Cluster.clean in
    Format.printf "  %s@."
      (if r.Sharedfs.Cluster.clean then "CLEAN" else "DIVERGENT");
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "fsck" ~doc ~man:fault_kinds_man)
    Term.(
      const run $ verbosity_t $ chaos_seed_t $ chaos_policy_t
      $ chaos_duration_t $ chaos_plan_t)

let trace_report_cmd =
  let doc =
    "Analyze a JSONL trace offline: latency attribution (queue vs service \
     vs move-induced buffering), hot servers and file sets, the \
     fault/fence timeline, and a causal slice for every invariant \
     violation."
  in
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL trace file (written by `run --trace-jsonl').")
  in
  let from_ =
    Arg.(
      value
      & opt (some float) None
      & info [ "from" ] ~docv:"T"
          ~doc:"Window start, virtual seconds (default: trace start).")
  in
  let to_ =
    Arg.(
      value
      & opt (some float) None
      & info [ "to" ] ~docv:"T"
          ~doc:"Window end, virtual seconds (default: trace end).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Rank the top K servers and file sets (default 5).")
  in
  let run () file from_ to_ top =
    if top < 0 then begin
      Logs.err (fun m -> m "--top must be non-negative (got %d)" top);
      exit 1
    end;
    match Experiments.Forensics.load file with
    | Error msg ->
      Logs.err (fun m -> m "cannot load trace: %s" msg);
      exit 1
    | Ok trace ->
      let report =
        Experiments.Forensics.analyze ?from_ ?until:to_ ~top ~path:file trace
      in
      Format.printf "%a" Experiments.Forensics.pp_report report
  in
  Cmd.v (Cmd.info "trace-report" ~doc)
    Term.(const run $ verbosity_t $ file $ from_ $ to_ $ top)

let motivation_cmd =
  let doc =
    "Run the Section-2 motivation experiment (metadata imbalance starves the \
     SAN)."
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Scale the workload down ~10x.")
  in
  let run () quick =
    List.iter
      (fun r -> Format.printf "%a@." Experiments.Motivation.pp_result r)
      (Experiments.Motivation.experiment ~quick ())
  in
  Cmd.v (Cmd.info "motivation" ~doc) Term.(const run $ verbosity_t $ quick)

let () =
  let doc =
    "Reproduction of `Handling Heterogeneity in Shared-Disk File Systems' \
     (SC'03)"
  in
  let info = Cmd.info "shdisk-sim" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; trace_cmd; trace_report_cmd; validate_cmd;
            chaos_cmd; explore_cmd; fsck_cmd; motivation_cmd;
          ]))
