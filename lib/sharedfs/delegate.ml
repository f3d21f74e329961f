type server_report = {
  server : Server_id.t;
  speed_hint : float;
  report : Server.report;
}

let elect ~alive =
  match List.sort Server_id.compare alive with
  | [] -> None
  | id :: _ -> Some id

let collect cluster =
  Cluster.alive_ids cluster
  |> List.map (fun id ->
         let s = Cluster.server cluster id in
         {
           server = id;
           speed_hint = Server.speed s;
           report = Server.take_report s;
         })

type round_outcome =
  | Round_complete of server_report list
  | Round_degraded of {
      reports : server_report list;
      missing : Server_id.t list;
    }
  | Round_skipped of { missing : Server_id.t list }

let quorum ~alive = (alive / 2) + 1

let collect_async ?rng cluster ~timeout ~fate ~k =
  Desim.Timeout.validate timeout;
  let sim = Cluster.sim cluster in
  (* Snapshot every alive server's window once.  A lost report is
     retransmitted from this snapshot — the protocol stays stateless
     on the delegate side, the server just resends what it measured. *)
  let reports = collect cluster in
  let attempts = Desim.Timeout.attempts timeout in
  (* Jitter desynchronizes the per-server retry schedules; each server
     probes with its own split of the caller's generator (split in
     list order, so the whole round stays a pure function of the
     seed).  At [jitter = 0] no generator is touched and the schedule
     is the exact nominal one. *)
  let jitter_rng =
    match rng with
    | Some r when timeout.Desim.Timeout.jitter > 0.0 -> Some r
    | Some _ | None -> None
  in
  (* For each server, walk the retry schedule: attempt [i] goes out
     once the preceding (possibly jittered) windows have elapsed; a
     reply delivered within that attempt's window arrives inside it,
     anything later (or lost) eats the window and triggers the next
     attempt.  The whole fate is decided up front so one round costs
     one pass of RNG draws — deterministic and replayable. *)
  let fates =
    List.map
      (fun r ->
        let jrng = Option.map Desim.Rng.split jitter_rng in
        let rec probe i start =
          if i >= attempts then `Missing start
          else
            let window = Desim.Timeout.jittered_window ?rng:jrng timeout i in
            match fate ~server:r.server ~attempt:i with
            | `Deliver d when d <= window -> `Arrives (start +. d)
            | `Deliver _ | `Lost -> probe (i + 1) (start +. window)
        in
        (r, probe 0 0.0))
      reports
  in
  let arrived =
    List.filter_map
      (fun (r, f) ->
        match f with `Arrives at -> Some (r, at) | `Missing _ -> None)
      fates
  in
  let missing =
    List.filter_map
      (fun (r, f) ->
        match f with `Missing _ -> Some r.server | `Arrives _ -> None)
      fates
  in
  (* The delegate can close the round as soon as every server has
     either replied or exhausted its schedule; with no jitter a silent
     server's give-up time is exactly [Timeout.deadline]. *)
  let decision_offset =
    List.fold_left
      (fun acc (_, f) ->
        Float.max acc (match f with `Arrives at -> at | `Missing g -> g))
      0.0 fates
  in
  let survivors = List.map fst arrived in
  let outcome =
    if missing = [] then Round_complete survivors
    else if List.length survivors >= quorum ~alive:(List.length reports)
    then Round_degraded { reports = survivors; missing }
    else Round_skipped { missing }
  in
  if decision_offset <= 0.0 then k outcome
  else
    let (_ : Desim.Sim.handle) =
      Desim.Sim.schedule sim ~delay:decision_offset (fun () -> k outcome)
    in
    ()

(* Report aggregation runs once per reconfiguration round over every
   alive server, so at big n the intermediate pair/option lists the
   original implementations allocated were the round's main garbage.
   These fold the reports directly (mean) and fill one float array
   (median), preserving the originals' float operation order exactly:
   the mean accumulates [num]/[den] in report order and the median
   sorts the same multiset with the same comparator.  The list-based
   originals live on as oracles in the test suite. *)
let mean_latency reports =
  let num = ref 0.0 and den = ref 0.0 in
  List.iter
    (fun r ->
      let w = float_of_int r.report.Server.requests in
      num := !num +. (r.report.Server.mean_latency *. w);
      den := !den +. w)
    reports;
  if !den = 0.0 then 0.0 else !num /. !den

let median_latency reports =
  let active =
    List.fold_left
      (fun acc r -> if r.report.Server.requests > 0 then acc + 1 else acc)
      0 reports
  in
  if active = 0 then 0.0
  else begin
    let arr = Array.make active 0.0 in
    let i = ref 0 in
    List.iter
      (fun r ->
        if r.report.Server.requests > 0 then begin
          arr.(!i) <- r.report.Server.mean_latency;
          incr i
        end)
      reports;
    Array.sort Float.compare arr;
    if active mod 2 = 1 then arr.(active / 2)
    else (arr.((active / 2) - 1) +. arr.(active / 2)) /. 2.0
  end

let round_event cluster ~time ~round ~average ~regions reports =
  let delegate =
    Option.map Server_id.to_int (elect ~alive:(Cluster.alive_ids cluster))
  in
  let inputs =
    List.map
      (fun r ->
        {
          Obs.Event.server = Server_id.to_int r.server;
          mean_latency = r.report.Server.mean_latency;
          max_latency = r.report.Server.max_latency;
          requests = r.report.Server.requests;
          queue_depth = Server.queue_length (Cluster.server cluster r.server);
        })
      reports
  in
  Obs.Event.Delegate_round
    {
      time;
      round;
      delegate;
      average;
      inputs;
      regions =
        List.map (fun (id, measure) -> (Server_id.to_int id, measure)) regions;
    }
