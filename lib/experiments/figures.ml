type figure = {
  id : string;
  title : string;
  description : string;
  results : Runner.result list;
}

let dfs_trace ~quick =
  let cfg = Workload.Dfs_like.default_config in
  let cfg =
    if quick then { cfg with Workload.Dfs_like.requests = cfg.requests / 10 }
    else cfg
  in
  Workload.Dfs_like.generate cfg

let synthetic_trace ~quick =
  let cfg = Workload.Synthetic.default_config in
  let cfg =
    if quick then
      {
        cfg with
        Workload.Synthetic.requests = cfg.requests / 10;
        file_sets = cfg.file_sets / 5;
      }
    else cfg
  in
  Workload.Synthetic.generate cfg

let anu_spec = Scenario.Anu Placement.Anu.default_config

(* Figure 6's workload at an arbitrary request count, as a pull
   stream.  The count scales while the per-request mean demand scales
   inversely, so offered load — and with it queueing behaviour — stays
   at the figure's calibrated level at any scale. *)
let dfs_stream ~requests =
  let cfg = Workload.Dfs_like.default_config in
  let base = cfg.Workload.Dfs_like.requests in
  if requests = base then Workload.Dfs_like.stream cfg
  else begin
    if requests <= 0 then
      invalid_arg "Figures.dfs_stream: requests must be > 0";
    let factor = float_of_int requests /. float_of_int base in
    Workload.Dfs_like.stream
      {
        cfg with
        Workload.Dfs_like.requests;
        mean_demand = cfg.Workload.Dfs_like.mean_demand /. factor;
      }
  end

let fig6_stream ?requests ?obs () =
  let requests =
    match requests with
    | Some n -> n
    | None -> Workload.Dfs_like.default_config.Workload.Dfs_like.requests
  in
  let stream = dfs_stream ~requests in
  {
    id = "fig6-stream";
    title = "Streaming figure-6 workload (constant-memory driver)";
    description =
      Printf.sprintf
        "One ANU run of the figure-6 workload at %d requests, driven \
         entirely through the pull-based stream: the event heap holds only \
         the next arrival, latencies are summarized online, and memory \
         stays flat no matter the request count."
        requests;
    results = [ Runner.run_stream Scenario.default anu_spec ~stream ?obs () ];
  }

let four_policies = [ Scenario.Simple_random; Round_robin; Prescient; anu_spec ]

(* The simulations behind one figure are independent: fan them out on
   a domain pool.  [jobs <= 1] (the default) runs serially in this
   domain; either way results come back in spec order and each run is
   single-domain deterministic, so output is bit-identical across
   [jobs] values. *)
let run_all ?(obs = Obs.Ctx.null) ?(jobs = 1) ~trace specs =
  Par.Pool.run ~jobs
    (List.map
       (fun spec () -> Runner.run Scenario.default spec ~trace ~obs ())
       specs)

let fig6 ?(quick = false) ?jobs ?obs () =
  let trace = dfs_trace ~quick in
  {
    id = "fig6";
    title = "Server latency for DFSTrace workloads";
    description =
      "Per-server latency over one hour, five servers (speeds 1,3,5,7,9), \
       under the four placement policies.";
    results = run_all ?obs ?jobs ~trace four_policies;
  }

let fig7 ?(quick = false) ?jobs ?obs () =
  let trace = dfs_trace ~quick in
  {
    id = "fig7";
    title = "Dynamic Prescient vs. ANU Randomization (DFSTrace)";
    description =
      "Close-up of the two adaptive policies on the Figure 6 workload: \
       prescient starts balanced, ANU converges within ~3 sample periods.";
    results = run_all ?obs ?jobs ~trace [ Scenario.Prescient; anu_spec ];
  }

let fig8 ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  {
    id = "fig8";
    title = "Server latency for synthetic workload";
    description =
      "500 file sets with cubic weight skew, 100k requests over 10,000 s, \
       under the four placement policies.";
    results = run_all ?obs ?jobs ~trace four_policies;
  }

let fig9 ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  {
    id = "fig9";
    title = "Prescient vs. ANU Randomization (synthetic)";
    description =
      "Close-up on the synthetic workload; the least powerful server ends \
       with no load under ANU, one small file set under prescient.";
    results = run_all ?obs ?jobs ~trace [ Scenario.Prescient; anu_spec ];
  }

let fig10 ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  let specs =
    [
      Scenario.anu_with Placement.Heuristics.none ~name:"anu-no-heuristics";
      Scenario.anu_with Placement.Heuristics.all_three ~name:"anu-all-three";
    ]
  in
  {
    id = "fig10";
    title = "The over-tuning problem - before and after";
    description =
      "ANU without heuristics cycles the weakest server between zero and \
       high latency; thresholding + top-off + divergent tuning stabilize \
       it.";
    results = run_all ?obs ?jobs ~trace specs;
  }

let fig11 ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  let specs =
    [
      Scenario.anu_with Placement.Heuristics.threshold_only
        ~name:"anu-threshold";
      Scenario.anu_with Placement.Heuristics.top_off_only ~name:"anu-top-off";
      Scenario.anu_with Placement.Heuristics.divergent_only
        ~name:"anu-divergent";
    ]
  in
  {
    id = "fig11";
    title = "The three techniques to solve over-tuning";
    description =
      "Each heuristic alone: thresholding stabilizes but cannot handle \
       extreme server heterogeneity; top-off is the single most effective; \
       divergent converges most slowly.";
    results = run_all ?obs ?jobs ~trace specs;
  }

let ablation_interval ?(quick = false) ?(jobs = 1) ?obs () =
  let trace = synthetic_trace ~quick in
  let results =
    Par.Pool.run ~jobs
      (List.map
         (fun interval () ->
           let scenario =
             {
               Scenario.default with
               Scenario.label = Printf.sprintf "interval-%.0fs" interval;
               reconfig_interval = interval;
             }
           in
           Runner.run scenario anu_spec ~trace ?obs ())
         [ 30.0; 60.0; 120.0; 240.0; 480.0 ])
  in
  {
    id = "ablation-interval";
    title = "Reconfiguration interval sweep (ANU)";
    description =
      "The paper found two minutes to balance over-tuning against \
       responsiveness; shorter intervals over-tune, longer ones react \
       slowly.";
    results;
  }

let ablation_average ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  let spec_of m name =
    Scenario.Anu
      { Placement.Anu.default_config with averaging = m; name }
  in
  {
    id = "ablation-average";
    title = "Averaging method: weighted mean vs median (ANU)";
    description =
      "The paper reports the system is robust to the choice of average; \
       both methods should converge to comparable balance.";
    results =
      run_all ?obs ?jobs ~trace
        [
          spec_of Placement.Average.Weighted_mean "anu-mean";
          spec_of Placement.Average.Median "anu-median";
        ];
  }

let ablation_threshold ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  let spec_of t =
    Scenario.anu_with
      {
        Placement.Heuristics.all_three with
        Placement.Heuristics.threshold = Some t;
      }
      ~name:(Printf.sprintf "anu-t%.2f" t)
  in
  {
    id = "ablation-threshold";
    title = "Threshold parameter sweep (ANU)";
    description =
      "Fairly large thresholds are needed to cope with workload \
       heterogeneity; small ones re-introduce tuning churn.";
    results = run_all ?obs ?jobs ~trace (List.map spec_of [ 0.1; 0.25; 0.5; 1.0 ]);
  }

let temporal_shift ?(quick = false) ?jobs ?obs () =
  let cfg = Workload.Shifting.default_config in
  let cfg =
    if quick then
      { cfg with Workload.Shifting.requests = cfg.Workload.Shifting.requests / 10 }
    else cfg
  in
  let trace = Workload.Shifting.generate cfg in
  {
    id = "temporal-shift";
    title = "Temporal heterogeneity: a wandering hotspot (extension)";
    description =
      "70% of the load concentrates on a hot group of file sets that \
       relocates every 10 minutes.  Static policies are at best right for \
       one phase; prescient anticipates each shift; ANU follows it one \
       reconfiguration behind.";
    results = run_all ?obs ?jobs ~trace four_policies;
  }

let decentralized ?(quick = false) ?jobs ?obs () =
  let trace = synthetic_trace ~quick in
  {
    id = "decentralized";
    title = "Centralized delegate vs pair-wise gossip (extension)";
    description =
      "The paper's future-work variant: servers rescale their regions in \
       deterministic pair-wise exchanges with no delegate and no global \
       average.  Convergence is slower (information diffuses one pair per \
       round) but balance approaches the centralized result.";
    results =
      run_all ?obs ?jobs ~trace
        [
          Scenario.Anu Placement.Anu.default_config;
          Scenario.Gossip Placement.Gossip.default_config;
        ];
  }

let failure_recovery ?(quick = false) ?jobs:_ ?obs () =
  let trace = dfs_trace ~quick in
  let events =
    [
      { Runner.at = 1500.0; action = Runner.Fail 3 };
      { Runner.at = 2400.0; action = Runner.Recover 3 };
    ]
  in
  let results =
    [ Runner.run Scenario.default anu_spec ~trace ~events ?obs () ]
  in
  {
    id = "failure-recovery";
    title = "Failure and recovery under ANU (extension)";
    description =
      "Server 3 (speed 7) fails at minute 25 and recovers at minute 40; \
       survivors scale up proportionally, only the failed server's file \
       sets move, and the recovered server re-enters through a free \
       partition.";
    results;
  }

let failure_recovery_chaos ?(quick = false) ?jobs:_ ?obs () =
  let trace = synthetic_trace ~quick in
  let duration = Workload.Trace.duration trace in
  let faults = Fault.Plan.default ~seed:42 ~duration in
  let results =
    List.map
      (fun spec -> Runner.run Scenario.default spec ~trace ~faults ?obs ())
      [ anu_spec; Scenario.Round_robin ]
  in
  {
    id = "failure-recovery-chaos";
    title = "Failure and recovery under a seeded fault plan (extension)";
    description =
      "ANU and the round-robin baseline under the default chaos mix: a \
       server crash-and-recover cycle, a mid-round delegate crash, 10% \
       report loss, mid-move endpoint crashes and a transient disk stall.  \
       Invariants (half-occupancy, single ownership, request \
       conservation) are checked after every round; violations, if any, \
       ride along in each result.";
    results;
  }

let partition_chaos ?(quick = false) ?jobs:_ ?obs () =
  let trace = synthetic_trace ~quick in
  let duration = Workload.Trace.duration trace in
  let faults = Fault.Plan.partition_mix ~seed:42 ~duration in
  let results =
    List.map
      (fun spec -> Runner.run Scenario.default spec ~trace ~faults ?obs ())
      [ anu_spec; Scenario.Round_robin ]
  in
  {
    id = "partition-chaos";
    title = "Partitions, fencing and the ownership ledger (extension)";
    description =
      "ANU and the round-robin baseline under the partition-centric chaos \
       mix: the elected delegate loses the cluster network while round-1 \
       moves are in flight (it is fenced at the disk and its zombie writes \
       rejected while the survivors re-elect under a bumped lease epoch), a \
       second server later loses its disk path, one ledger append tears \
       mid-sector, and light report loss rides along.  On top of the usual \
       invariants, every check audits the lease (at most one live unfenced \
       believer), the fence (no zombie write ever lands) and the ledger \
       (replay agrees with in-memory ownership).";
    results;
  }

let domain_failure_collateral ?(quick = false) ?jobs:_ ?obs () =
  let trace = synthetic_trace ~quick in
  let duration = Workload.Trace.duration trace in
  let faults = Fault.Plan.domain_mix ~seed:42 ~duration in
  (* Sweep the same five servers re-racked ever finer: 2 racks (the
     paper topology the mix is written against), 3, then 5 singleton
     racks.  The mix only ever touches rack0 and rack1, which exist in
     every layout, so the fault schedule is identical across the sweep
     and only the blast radius changes. *)
  let spread_run domains =
    let scenario =
      {
        Scenario.default with
        Scenario.topology = Some (Scenario.rack_topology ~domains ());
      }
    in
    let spec =
      Scenario.Anu
        {
          Placement.Anu.default_config with
          name = Printf.sprintf "anu-racks-%d" domains;
        }
    in
    Runner.run scenario spec ~trace ~faults ?obs ()
  in
  (* The baseline rides the same two-rack topology but with the spread
     constraint off: tuning concentrates the interval inside the fast
     rack and the collateral invariant records the violations the
     constrained runs avoid. *)
  let unconstrained =
    let scenario =
      { Scenario.default with Scenario.topology = Some Scenario.paper_topology }
    in
    let spec =
      Scenario.Anu
        {
          Placement.Anu.default_config with
          domain_spread = None;
          name = "anu-unconstrained";
        }
    in
    Runner.run scenario spec ~trace ~faults ?obs ()
  in
  {
    id = "domain-failure-collateral";
    title = "Collateral damage under whole-domain failure (extension)";
    description =
      "Spread-constrained ANU over 2, 3 and 5 rack layouts of the paper's \
       five servers, plus an unconstrained-ANU baseline on the two-rack \
       layout, all under the domain chaos mix (seed 42): rack0 loses the \
       cluster network and heals, then rack1 crashes whole and recovers.  \
       The domain-spread and collateral-bound invariants are checked after \
       every round — the constrained runs hold them at every rack count, \
       while the unconstrained baseline concentrates the interval inside \
       the fast rack and violates the bound when that rack dies.";
    results = List.map spread_run [ 2; 3; 5 ] @ [ unconstrained ];
  }

(* The big-cluster reconfiguration family: ANU and round-robin over
   100, 1,000 and 10,000 servers on the figure-6 workload, with the
   delta-maintained invariant accumulators standing in for the full
   per-round sweep (the full check still runs, and resyncs the
   accumulators, at every membership event — here only the start).
   The request count is fixed across sizes: the figure measures what a
   reconfiguration round costs as the cluster grows, not how a bigger
   cluster absorbs more load, so the per-round work (collect, tune,
   re-address, invariants) is the only thing that scales. *)
let scale ?(quick = false) ?jobs ?obs () =
  let sizes = [ 100; 1_000; 10_000 ] in
  let requests = if quick then 4_000 else 40_000 in
  let runs =
    List.concat_map
      (fun n ->
        let scenario = Scenario.scale_cluster ~n in
        let anu_n =
          Scenario.Anu
            {
              Placement.Anu.default_config with
              name = Printf.sprintf "anu-n%d" n;
            }
        in
        List.map
          (fun spec () ->
            Runner.run_stream scenario spec ~stream:(dfs_stream ~requests)
              ?obs ~invariants:`Light ())
          [ anu_n; Scenario.Round_robin ])
      sizes
  in
  let jobs = match jobs with Some j -> j | None -> 1 in
  {
    id = "scale";
    title = "Reconfiguration rounds at 100 / 1,000 / 10,000 servers";
    description =
      Printf.sprintf
        "ANU and round-robin on the figure-6 workload (%d requests, \
         five speeds cycled, ten racks, seed 42) as the cluster grows \
         two orders of magnitude: every reconfiguration round still \
         collects, tunes and re-addresses, and every round is \
         invariant-checked through the O(changed) accumulators.  Runs \
         come in size order — ANU then round-robin at n = 100, 1,000, \
         10,000."
        requests;
    results = Par.Pool.run ~jobs runs;
  }

let registry =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("ablation-interval", ablation_interval);
    ("ablation-average", ablation_average);
    ("ablation-threshold", ablation_threshold);
    ("temporal-shift", temporal_shift);
    ("decentralized", decentralized);
    ("failure-recovery", failure_recovery);
    ("failure-recovery-chaos", failure_recovery_chaos);
    ("partition-chaos", partition_chaos);
    ("domain-failure-collateral", domain_failure_collateral);
    ("scale", scale);
  ]

let all_ids = List.map fst registry

let by_id id = List.assoc_opt id registry
