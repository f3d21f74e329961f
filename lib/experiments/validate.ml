type check = { name : string; ok : bool; detail : string }

let find name (figure : Figures.figure) =
  List.find
    (fun r -> r.Runner.policy_name = name)
    figure.Figures.results

let late (r : Runner.result) = Runner.mean_after r ~from_:(r.Runner.duration /. 3.0)

let moves (r : Runner.result) = List.length r.Runner.moves

let check name ok detail = { name; ok; detail }

let static_vs_adaptive ~label (figure : Figures.figure) =
  let rr = find "round-robin" figure in
  let sr = find "simple-random" figure in
  let anu = find "anu" figure in
  let presc = find "prescient" figure in
  let worst_static = Float.max (late rr) (late sr) in
  let best_adaptive = Float.min (late anu) (late presc) in
  [
    check
      (label ^ ": static policies lose to adaptive ones")
      (worst_static > 1.5 *. Float.max (late anu) (late presc))
      (Printf.sprintf "worst static %.1f ms vs worst adaptive %.1f ms"
         (worst_static *. 1000.0)
         (Float.max (late anu) (late presc) *. 1000.0));
    check
      (label ^ ": every request eventually completes")
      (List.for_all
         (fun (r : Runner.result) -> r.Runner.completed = r.Runner.submitted)
         figure.Figures.results)
      "completed = submitted for all four policies";
    check
      (label ^ ": adaptive policies stay in the tens of milliseconds")
      (best_adaptive < 0.2)
      (Printf.sprintf "best adaptive converged mean %.1f ms"
         (best_adaptive *. 1000.0));
  ]

let anu_vs_prescient ~label ~factor ~max_moves (figure : Figures.figure) =
  let anu = find "anu" figure in
  let presc = find "prescient" figure in
  [
    check
      (label ^ ": ANU performs comparably to prescient")
      (late anu < factor *. Float.max (late presc) 1e-9)
      (Printf.sprintf "ANU %.1f ms vs prescient %.1f ms (allowed %gx)"
         (late anu *. 1000.0)
         (late presc *. 1000.0)
         factor);
    check
      (label ^ ": ANU moves few file sets (cache preservation)")
      (moves anu <= max_moves)
      (Printf.sprintf "%d moves (bound %d)" (moves anu) max_moves);
  ]

let over_tuning (figure : Figures.figure) =
  let none = find "anu-no-heuristics" figure in
  let all = find "anu-all-three" figure in
  let all_i =
    Runner.converged_imbalance all ~from_:(all.Runner.duration /. 3.0)
  in
  let none_i =
    Runner.converged_imbalance none ~from_:(none.Runner.duration /. 3.0)
  in
  [
    check "fig10: without heuristics the system over-tunes"
      (moves none > 5 * moves all)
      (Printf.sprintf "%d moves without heuristics vs %d with" (moves none)
         (moves all));
    check "fig10: heuristics improve converged balance" (all_i < none_i)
      "imbalance(all-three) < imbalance(none)";
  ]

let decomposition (figure : Figures.figure) =
  let threshold = find "anu-threshold" figure in
  let top_off = find "anu-top-off" figure in
  let divergent = find "anu-divergent" figure in
  [
    check "fig11: top-off is the single most effective heuristic"
      (late top_off <= late threshold && late top_off <= late divergent)
      (Printf.sprintf "top-off %.1f ms, threshold %.1f ms, divergent %.1f ms"
         (late top_off *. 1000.0)
         (late threshold *. 1000.0)
         (late divergent *. 1000.0));
    check "fig11: thresholding alone stabilizes but tolerates imbalance"
      (moves threshold < moves divergent)
      (Printf.sprintf "threshold %d moves vs divergent %d" (moves threshold)
         (moves divergent));
  ]

let decentralized_claim (figure : Figures.figure) =
  let anu = find "anu" figure in
  let gossip = find "anu-gossip" figure in
  [
    check "decentralized: gossip approaches the centralized result"
      (late gossip < 3.0 *. late anu)
      (Printf.sprintf "gossip %.1f ms vs centralized %.1f ms"
         (late gossip *. 1000.0)
         (late anu *. 1000.0));
  ]

let motivation_claim () =
  match Motivation.experiment () with
  | [ static; anu ] ->
    [
      check "motivation: metadata imbalance starves the data path"
        (anu.Motivation.mean_open_latency
         < static.Motivation.mean_open_latency
        && anu.Motivation.data_bytes_in_window
           >= static.Motivation.data_bytes_in_window)
        (Printf.sprintf
           "open latency %.0f ms -> %.0f ms; in-window data %.0f MB -> %.0f \
            MB"
           (static.Motivation.mean_open_latency *. 1000.0)
           (anu.Motivation.mean_open_latency *. 1000.0)
           (float_of_int static.Motivation.data_bytes_in_window /. 1e6)
           (float_of_int anu.Motivation.data_bytes_in_window /. 1e6));
    ]
  | _ -> [ check "motivation: experiment ran" false "unexpected result shape" ]

let convergence_claim () =
  (* ANU starts with no knowledge and reaches good balance within a
     few sample periods (paper: ~3 periods; we allow the first ten
     minutes). *)
  let figure = Figures.fig7 () in
  let anu = find "anu" figure in
  let early = Runner.mean_after anu ~from_:600.0 in
  let initial =
    let pairs =
      List.concat_map
        (fun (_, points) ->
          List.filter_map
            (fun (p : Desim.Timeseries.point) ->
              if p.Desim.Timeseries.bucket_start < 600.0 && p.count > 0 then
                Some (p.Desim.Timeseries.mean, float_of_int p.count)
              else None)
            points)
        anu.Runner.server_series
    in
    Desim.Stat.weighted_mean pairs
  in
  [
    check "fig7: ANU converges from a uniform start"
      (early < initial)
      (Printf.sprintf "first 10 min %.1f ms, afterwards %.1f ms"
         (initial *. 1000.0) (early *. 1000.0));
  ]

let temporal_claim () =
  let figure = Figures.temporal_shift () in
  let anu = find "anu" figure in
  let rr = find "round-robin" figure in
  [
    check "temporal-shift: ANU tracks a wandering hotspot"
      (late anu < late rr)
      (Printf.sprintf "ANU %.1f ms vs round-robin %.1f ms"
         (late anu *. 1000.0) (late rr *. 1000.0));
  ]

let membership_claim () =
  let results =
    Membership.compare_all ~servers:5 ~file_sets:5_000 ~failed:2 ~seed:5
  in
  let find m = List.find (fun r -> r.Membership.mechanism = m) results in
  let anu = find Membership.Anu in
  let simple = find Membership.Simple_random in
  [
    check "membership: ANU failure movement is bounded"
      (anu.Membership.collateral_on_failure < 5_000 / 4
      && anu.Membership.collateral_on_failure
         <= simple.Membership.collateral_on_failure * 2)
      (Printf.sprintf "collateral %d of %d sets"
         anu.Membership.collateral_on_failure 5_000);
  ]

let balance_claim () =
  let results =
    Placement.Balance_study.compare_all ~servers:8 ~file_sets:512 ~trials:30
      ~seed:1
  in
  let find m =
    List.find (fun r -> r.Placement.Balance_study.mechanism = m) results
  in
  let simple = find Placement.Balance_study.Simple in
  let tuned = find Placement.Balance_study.Anu_tuned in
  [
    check "balance: scaling beats simple randomization when homogeneous"
      (tuned.Placement.Balance_study.mean_ratio
      < simple.Placement.Balance_study.mean_ratio)
      (Printf.sprintf "tuned max/mean %.3f vs simple %.3f"
         tuned.Placement.Balance_study.mean_ratio
         simple.Placement.Balance_study.mean_ratio);
  ]

let run () =
  let fig6 = Figures.fig6 () in
  let fig8 = Figures.fig8 () in
  let fig10 = Figures.fig10 () in
  let fig11 = Figures.fig11 () in
  let dec = Figures.decentralized () in
  List.concat
    [
      static_vs_adaptive ~label:"fig6" fig6;
      anu_vs_prescient ~label:"fig7" ~factor:5.0 ~max_moves:60 fig6;
      static_vs_adaptive ~label:"fig8" fig8;
      anu_vs_prescient ~label:"fig9" ~factor:5.0 ~max_moves:300 fig8;
      over_tuning fig10;
      decomposition fig11;
      decentralized_claim dec;
      motivation_claim ();
      convergence_claim ();
      temporal_claim ();
      membership_claim ();
      balance_claim ();
    ]

let all_passed checks = List.for_all (fun c -> c.ok) checks

let pp fmt checks =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun c ->
      Format.fprintf fmt "[%s] %-55s %s@,"
        (if c.ok then "PASS" else "FAIL")
        c.name c.detail)
    checks;
  let failed = List.filter (fun c -> not c.ok) checks in
  Format.fprintf fmt "%d/%d claims verified@]"
    (List.length checks - List.length failed)
    (List.length checks)
