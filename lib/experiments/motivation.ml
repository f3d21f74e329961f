type result = {
  policy_name : string;
  mean_open_latency : float;
  san_utilization : float;
  data_bytes_in_window : int;
  data_bytes_total : int;
}

(* Deterministic per-request transfer size: 64 KiB to ~4 MiB, derived
   from the request's path hash so every policy sees identical data
   work. *)
let transfer_bytes ~path_hash =
  let h = Hashlib.Mix64.mix (Int64.of_int path_hash) in
  let u = Hashlib.Mix64.to_unit_float h in
  65_536 + int_of_float (u *. 4_000_000.0)

let run scenario spec ~trace ~san_bandwidth =
  let san = ref None in
  let bytes_at_window_end = ref 0 in
  let utilization_at_window_end = ref 0.0 in
  let duration = Workload.Trace.duration trace in
  let opens = Desim.Welford.create () in
  let result =
    Runner.run scenario spec ~trace
      ~on_sim_created:(fun sim ->
        let s = Sharedfs.San.create sim ~bandwidth:san_bandwidth in
        san := Some s;
        (* Snapshot the SAN exactly when the trace hour ends. *)
        let (_ : Desim.Sim.handle) =
          Desim.Sim.schedule_at sim ~time:duration (fun () ->
              bytes_at_window_end := Sharedfs.San.bytes_completed s;
              utilization_at_window_end :=
                Sharedfs.San.utilization s ~until:duration)
        in
        ())
      ~on_request_complete:(fun ~fs:_ ~op ~path_hash ~client:_ ~latency ->
        match op with
        | Sharedfs.Request.Open_file ->
          Desim.Welford.add opens latency;
          let s = Option.get !san in
          Sharedfs.San.transfer s ~bytes:(transfer_bytes ~path_hash)
        | Sharedfs.Request.Close_file | Sharedfs.Request.Stat
        | Sharedfs.Request.Create | Sharedfs.Request.Remove
        | Sharedfs.Request.Rename | Sharedfs.Request.Readdir
        | Sharedfs.Request.Lock_acquire | Sharedfs.Request.Lock_release
        | Sharedfs.Request.Set_attr ->
          ())
      ()
  in
  let san = Option.get !san in
  {
    policy_name = result.Runner.policy_name;
    mean_open_latency = Desim.Welford.mean opens;
    san_utilization = !utilization_at_window_end;
    data_bytes_in_window = !bytes_at_window_end;
    data_bytes_total = Sharedfs.San.bytes_completed san;
  }

let experiment ?(quick = false) () =
  let cfg = Workload.Dfs_like.default_config in
  let cfg =
    if quick then { cfg with Workload.Dfs_like.requests = cfg.requests / 10 }
    else cfg
  in
  let trace = Workload.Dfs_like.generate cfg in
  (* 40 MB/s: comfortably above the offered data rate, so any idling
     is caused by the metadata path, not the SAN itself. *)
  let san_bandwidth = 40e6 in
  List.map
    (fun spec -> run Scenario.default spec ~trace ~san_bandwidth)
    [ Scenario.Round_robin; Scenario.Anu Placement.Anu.default_config ]

let pp_result fmt r =
  Format.fprintf fmt
    "%-14s mean open latency %8.1f ms   SAN utilization %5.1f%%   data in \
     window %6.1f MB (of %6.1f MB eventually)"
    r.policy_name
    (r.mean_open_latency *. 1000.0)
    (r.san_utilization *. 100.0)
    (float_of_int r.data_bytes_in_window /. 1e6)
    (float_of_int r.data_bytes_total /. 1e6)
