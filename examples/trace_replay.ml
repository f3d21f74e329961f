(* Trace files and the file-system substrate.

   Generates a DFSTrace-like workload, saves it in the text trace
   format, loads it back, replays it through the simulator, and then
   shows the lock state that travels with a file set when it moves.

     dune exec examples/trace_replay.exe *)

let () =
  (* 1. Generate, save, reload. *)
  let trace =
    Workload.Dfs_like.generate
      { Workload.Dfs_like.default_config with Workload.Dfs_like.requests = 10_000 }
  in
  let path = Filename.temp_file "shdisk" ".trace" in
  Workload.Trace_io.save trace ~path;
  let reloaded = Workload.Trace_io.load ~path in
  Sys.remove path;
  Format.printf "trace round-trip: %d records, duration %.0f s, %d file sets@."
    (Workload.Trace.length reloaded)
    (Workload.Trace.duration reloaded)
    (List.length (Workload.Trace.file_sets reloaded));

  (* 2. Replay under ANU. *)
  let result =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace:reloaded ()
  in
  Format.printf "replayed: %s@.@." (Experiments.Report.summary_line result);

  (* 3. Locks travel with the file set: the releasing server exports
     the set's lock table (file set 0 here) and the acquiring one
     imports it. *)
  let lm_src = Sharedfs.Lock_manager.create () in
  let key = { Sharedfs.Lock_manager.fs = 0; ino = 101 } in
  ignore
    (Sharedfs.Lock_manager.acquire lm_src ~key ~client:1
       ~mode:Sharedfs.Lock_manager.Shared);
  ignore
    (Sharedfs.Lock_manager.acquire lm_src ~key ~client:2
       ~mode:Sharedfs.Lock_manager.Exclusive);
  let state = Sharedfs.Lock_manager.export lm_src ~fs:0 in
  let lm_dst = Sharedfs.Lock_manager.create () in
  Sharedfs.Lock_manager.import lm_dst state;
  Format.printf
    "lock state exported with the file set: %d holder(s), %d queued at the \
     acquiring server@."
    (List.length (Sharedfs.Lock_manager.holders lm_dst ~key))
    (List.length (Sharedfs.Lock_manager.queued lm_dst ~key))
