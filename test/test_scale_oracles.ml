(* Big-n oracle pins: every incremental/allocation-free rewrite on the
   reconfiguration hot path against the full-recompute implementation
   it replaced.

   - Region_map: random scale/remove/add sequences (n up to 1,000)
     keep the incrementally-patched bucket index equal to a rebuild
     ([index_consistent]), [locate] equal to the flat-index oracle
     ([Region_map_oracle]),
     [free_in_partition] equal to restricting the global free set, and
     the structural invariants intact.
   - ANU: the flat-array [apply_domain_spread] returns byte-identical
     weights to the list-based reference below, across sizes, rack counts
     and repeated calls on the same reused scratch.
   - Delegate: the fold/array aggregations equal the list-based
     references bit-for-bit.
   - Invariants.Acc: delta-maintained accumulators render the same
     verdicts as a fresh full rebuild, and as the full
     [Invariants.check] oracle, across random mutation rounds. *)

open Placement
module Id = Sharedfs.Server_id
module RM = Region_map
module UI = Hashlib.Unit_interval
module Set = Hashlib.Unit_interval.Set

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ids n = List.init n Id.of_int

let family = Hashlib.Hash_family.create ~seed:2003

(* Deterministic pseudo-weights so a qcheck case needs only one seed,
   not a 1,000-element generated list. *)
let weight_of ~seed i =
  0.01 +. (float_of_int ((seed + (i * 2654435761)) land 0xffff) /. 65536.0)

(* --- Region_map: incremental index vs rebuild oracle --- *)

let partition_seg t j =
  let fp = float_of_int (RM.partitions t) in
  UI.seg (float_of_int j /. fp) (float_of_int (j + 1) /. fp)

let probes = [ 0.0; 0.125; 0.3; 0.5; 0.62; 0.75; 0.9; 0.999 ]

let map_healthy t =
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  (match RM.check_invariants t with
  | [] -> ()
  | v :: _ -> fail "invariant: %s" v);
  if not (RM.index_consistent t) then fail "index_consistent false";
  let locate_reference = Region_map_oracle.locate_reference t in
  List.iter
    (fun x ->
      if RM.locate t x <> locate_reference x then
        fail "locate mismatch at %g" x)
    probes;
  let p = RM.partitions t in
  let free = RM.free_set t in
  List.iter
    (fun j ->
      if
        not
          (Set.equal (RM.free_in_partition t j)
             (Set.restrict free (partition_seg t j)))
      then fail "free_in_partition mismatch at j=%d (p=%d)" j p)
    [ 0; p / 3; p / 2; p - 1 ];
  true

let prop_incremental_index_matches_rebuild =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 1000 in
      let* ops =
        list_size (1 -- 10)
          (frequency
             [
               ( 6,
                 let* seed = 0 -- 10000 in
                 return (`Scale seed) );
               ( 2,
                 let* k = 0 -- 5000 in
                 return (`Remove k) );
               (2, return `Add);
             ])
      in
      return (n, ops))
  in
  let print (n, ops) =
    Printf.sprintf "n=%d ops=[%s]" n
      (String.concat "; "
         (List.map
            (function
              | `Scale s -> Printf.sprintf "Scale %d" s
              | `Remove k -> Printf.sprintf "Remove %d" k
              | `Add -> "Add")
            ops))
  in
  QCheck.Test.make ~count:25
    ~name:"incremental bucket index matches rebuild under random sequences"
    (QCheck.make ~print gen)
    (fun (n, ops) ->
      let t = RM.create ~servers:(ids n) in
      let alive = ref (ids n) in
      let next = ref n in
      List.for_all
        (fun op ->
          (match op with
          | `Scale seed ->
            let targets =
              List.mapi (fun i id -> (id, weight_of ~seed i)) !alive
            in
            if targets <> [] then RM.scale t ~targets
          | `Remove k ->
            if List.length !alive > 1 then begin
              let victim = List.nth !alive (k mod List.length !alive) in
              RM.remove_server t victim;
              alive := List.filter (fun id -> not (Id.equal id victim)) !alive;
              (* remove_server leaves the map under-occupied by design;
                 rescale the survivors back to 1/2, as ANU's
                 server_failed does. *)
              RM.scale t
                ~targets:(List.mapi (fun i id -> (id, weight_of ~seed:k i)) !alive)
            end
          | `Add ->
            let id = Id.of_int !next in
            incr next;
            RM.add_server t id ~target:(0.5 /. float_of_int n);
            alive := !alive @ [ id ]);
          map_healthy t)
        ops
      &&
      (* The journal drains sorted and exactly once. *)
      let changed = RM.drain_changed t in
      List.sort Id.compare changed = changed && RM.drain_changed t = [])

(* --- ANU: flat-array domain spread vs list-based reference --- *)

let rack_topology ~n ~domains =
  Experiments.Scenario.rack_topology
    ~servers:(List.init n (fun i -> (i, 1.0)))
    ~domains ()

(* The original list/Hashtbl water-filling the flat-array
   [Anu.apply_domain_spread] replaced; the rewrite keeps its float
   operation order exactly. *)
let apply_domain_spread_reference t targets =
  let topology = Anu.topology t in
  match (Anu.config t).Anu.domain_spread with
  | _ when Sharedfs.Topology.is_flat topology -> targets
  | None -> targets
  | Some eps ->
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 targets in
    let n = List.length targets in
    if n = 0 || total <= Hashlib.Unit_interval.eps then targets
    else begin
      let weight = Hashtbl.create n in
      List.iter (fun (id, w) -> Hashtbl.replace weight id w) targets;
      (* domain name -> members present in [targets] *)
      let groups = Hashtbl.create 8 in
      List.iter
        (fun (id, _) ->
          match Sharedfs.Topology.domain_of topology id with
          | None -> ()
          | Some name ->
            let members =
              Option.value ~default:[] (Hashtbl.find_opt groups name)
            in
            Hashtbl.replace groups name (id :: members))
        targets;
      let names =
        List.sort String.compare
          (Hashtbl.fold (fun name _ acc -> name :: acc) groups [])
      in
      let cap name =
        let k = List.length (Hashtbl.find groups name) in
        Float.min 1.0 ((float_of_int k /. float_of_int n) +. eps) *. total
      in
      let group_sum name =
        List.fold_left
          (fun acc id -> acc +. Hashtbl.find weight id)
          0.0 (Hashtbl.find groups name)
      in
      let frozen = Hashtbl.create 8 in
      let continue = ref true in
      while !continue do
        let over =
          List.filter
            (fun name ->
              (not (Hashtbl.mem frozen name))
              && group_sum name > cap name +. (1e-9 *. total))
            names
        in
        match over with
        | [] -> continue := false
        | _ ->
          List.iter
            (fun name ->
              let s = group_sum name in
              let factor = cap name /. s in
              List.iter
                (fun id ->
                  Hashtbl.replace weight id (Hashtbl.find weight id *. factor))
                (Hashtbl.find groups name);
              Hashtbl.replace frozen name ())
            over;
          let frozen_weight =
            List.fold_left
              (fun acc name ->
                if Hashtbl.mem frozen name then acc +. group_sum name else acc)
              0.0 names
          in
          let free_ids =
            List.filter_map
              (fun (id, _) ->
                match Sharedfs.Topology.domain_of topology id with
                | Some name when Hashtbl.mem frozen name -> None
                | _ -> Some id)
              targets
          in
          let free_target = total -. frozen_weight in
          let free_current =
            List.fold_left
              (fun acc id -> acc +. Hashtbl.find weight id)
              0.0 free_ids
          in
          if free_current > Hashlib.Unit_interval.eps then
            let factor = free_target /. free_current in
            List.iter
              (fun id ->
                Hashtbl.replace weight id (Hashtbl.find weight id *. factor))
              free_ids
          else begin
            (* The freed weight has nowhere proportional to go (the
               survivors all sat at zero): grant it equally. *)
            match free_ids with
            | [] -> continue := false
            | _ ->
              let share = free_target /. float_of_int (List.length free_ids) in
              List.iter (fun id -> Hashtbl.replace weight id share) free_ids
          end
      done;
      List.map (fun (id, _) -> (id, Hashtbl.find weight id)) targets
    end

let prop_domain_spread_matches_reference =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 1000 in
      let* domains = 1 -- min 10 n in
      let* seeds = list_size (1 -- 3) (0 -- 10000) in
      return (n, domains, seeds))
  in
  QCheck.Test.make ~count:40
    ~name:"flat-array domain spread equals list-based reference"
    (QCheck.make gen)
    (fun (n, domains, seeds) ->
      let topology = rack_topology ~n ~domains in
      let anu = Anu.create ~family ~topology ~servers:(ids n) () in
      (* Several calls on one instance: the scratch arrays are reused,
         so later calls must not see earlier calls' state. *)
      List.for_all
        (fun seed ->
          let targets =
            List.mapi (fun i id -> (id, weight_of ~seed i)) (ids n)
          in
          Anu.apply_domain_spread anu targets
          = apply_domain_spread_reference anu targets)
        seeds)

(* --- Delegate: allocation-free aggregation vs reference --- *)

(* The original list-based aggregation the delegate's allocation-free
   folds replaced; they keep its float operation order exactly. *)
let mean_latency_reference reports =
  Desim.Stat.weighted_mean
    (List.map
       (fun r ->
         ( r.Sharedfs.Delegate.report.Sharedfs.Server.mean_latency,
           float_of_int r.Sharedfs.Delegate.report.Sharedfs.Server.requests ))
       reports)

let median_latency_reference reports =
  let active =
    List.filter_map
      (fun r ->
        let report = r.Sharedfs.Delegate.report in
        if report.Sharedfs.Server.requests > 0 then
          Some report.Sharedfs.Server.mean_latency
        else None)
      reports
  in
  match active with [] -> 0.0 | values -> Desim.Stat.median_of values

let prop_aggregation_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 40) (pair (float_range 0.0 100.0) (0 -- 50)))
  in
  QCheck.Test.make ~count:200
    ~name:"delegate mean/median equal list-based references"
    (QCheck.make gen)
    (fun raw ->
      let reports =
        List.mapi
          (fun i (latency, requests) ->
            {
              Sharedfs.Delegate.server = Id.of_int i;
              speed_hint = 1.0;
              report =
                {
                  Sharedfs.Server.mean_latency = latency;
                  max_latency = latency;
                  requests;
                };
            })
          raw
      in
      Float.equal
        (Sharedfs.Delegate.mean_latency reports)
        (mean_latency_reference reports)
      && Float.equal
           (Sharedfs.Delegate.median_latency reports)
           (median_latency_reference reports))

(* --- Invariants.Acc: delta rounds vs full recompute --- *)

let make_cluster_n ?topology n =
  let sim = Desim.Sim.create () in
  let disk = Sharedfs.Shared_disk.create () in
  let catalog =
    Sharedfs.File_set.Catalog.create (List.init 8 (Printf.sprintf "fs-%d"))
  in
  let servers = List.init n (fun i -> (Id.of_int i, 1.0)) in
  ( sim,
    Sharedfs.Cluster.create sim ~disk ~catalog ~series_interval:10.0 ~servers
      ?topology () )

(* A policy whose regions the test mutates directly, journalling every
   write — the minimal producer of the [changed_servers] contract. *)
let mutable_policy ~n =
  let measures = Hashtbl.create 16 in
  List.iter
    (fun id -> Hashtbl.replace measures id (0.5 /. float_of_int n))
    (ids n);
  let journal = ref [] in
  let set id m =
    Hashtbl.replace measures id m;
    journal := (id, m) :: !journal
  in
  let policy =
    {
      Policy.name = "mutable";
      locate = (fun _ -> Id.of_int 0);
      rebalance = (fun _ -> ());
      server_failed = (fun _ -> ());
      server_added = (fun _ -> ());
      delegate_crashed = (fun () -> ());
      regions =
        (fun () ->
          Hashtbl.fold (fun id m acc -> (id, m) :: acc) measures []
          |> List.sort (fun (a, _) (b, _) -> Id.compare a b));
      changed_servers =
        (fun () ->
          let l = List.rev !journal in
          journal := [];
          l);
      check = (fun () -> []);
    }
  in
  (policy, set)

let sorted_whats vs =
  List.sort String.compare
    (List.map (fun v -> v.Fault.Invariants.what) vs)

(* Values coarse enough that no sum lands within float drift of a
   verdict threshold (0.5 +- 1e-9, domain caps): every disagreement
   between running sums and a recompute would need ~1e-9 cancellation,
   and these deltas move totals by >= 5e-4. *)
let op_value ~n ~pick =
  match pick mod 5 with
  | 0 -> 0.0
  | 1 -> 0.3
  | 2 -> -0.1
  | 3 -> 2.0 *. (0.5 /. float_of_int n)
  | _ -> 0.5 /. float_of_int n

(* Rounds of region mutations; after each, the accumulator's verdicts
   (messages included) must equal a fresh rebuild's and the full
   check's. *)
let acc_agrees (n, domains, rounds) =
  let topology = rack_topology ~n ~domains in
  let _sim, cluster = make_cluster_n ~topology n in
  (* Place the catalog evenly across servers so the ownership and
     collateral invariants are clean — the full check then reports
     exactly the accumulator subset. *)
  Sharedfs.Cluster.assign_initial cluster
    (List.init 8 (fun i ->
         (Printf.sprintf "fs-%d" i, Id.of_int (i * n / 8))));
  let policy, set = mutable_policy ~n in
  let acc = Fault.Invariants.Acc.create ~cluster ~policy () in
  List.for_all
    (fun round ->
      List.iter
        (fun (who, pick) ->
          set (Id.of_int (who mod n)) (op_value ~n ~pick))
        round;
      Fault.Invariants.Acc.round acc;
      let delta = sorted_whats (Fault.Invariants.Acc.check acc ~cluster) in
      (* Fresh accumulator = full O(n) rebuild of the same sums. *)
      let fresh = Fault.Invariants.Acc.create ~cluster ~policy () in
      let rebuilt =
        sorted_whats (Fault.Invariants.Acc.check fresh ~cluster)
      in
      (* Full oracle: on this cluster every non-region invariant is
         clean, so the full check's verdicts are exactly the
         accumulator subset's. *)
      let full =
        sorted_whats (Fault.Invariants.check ~cluster ~policy ())
      in
      delta = rebuilt && delta = full)
    rounds

let prop_acc_matches_full_recompute =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 1000 in
      let* domains = 1 -- min 10 n in
      let* rounds = list_size (1 -- 6) (list_size (1 -- 3) (pair (0 -- 5000) (0 -- 5000))) in
      return (n, domains, rounds))
  in
  let print (n, domains, rounds) =
    Printf.sprintf "n=%d domains=%d rounds=[%s]" n domains
      (String.concat "; "
         (List.map
            (fun round ->
              String.concat ","
                (List.map
                   (fun (who, pick) -> Printf.sprintf "(%d,%d)" who pick)
                   round))
            rounds))
  in
  QCheck.Test.make ~count:10
    ~name:"delta-maintained invariant accumulators equal full recompute"
    (QCheck.make ~print gen) acc_agrees

(* The real producer end to end: a live ANU policy feeding the journal
   through rebalance rounds, with the accumulator agreeing with both a
   fresh rebuild and the full check (all clean) at every round. *)
let test_acc_on_live_anu () =
  let n = 50 in
  let topology = rack_topology ~n ~domains:5 in
  let _sim, cluster = make_cluster_n ~topology n in
  let anu = Anu.create ~family ~topology ~servers:(ids n) () in
  let policy = Anu.policy anu in
  Sharedfs.Cluster.assign_initial cluster
    (Policy.assignment_of policy (List.init 8 (Printf.sprintf "fs-%d")));
  (* Creation drains the initial-build journal entries. *)
  let acc = Fault.Invariants.Acc.create ~cluster ~policy () in
  for round = 1 to 5 do
    let reports =
      List.map
        (fun id ->
          let latency =
            float_of_int (((Id.to_int id * 7) + round) mod 13) +. 1.0
          in
          {
            Sharedfs.Delegate.server = id;
            speed_hint = 1.0;
            report =
              {
                Sharedfs.Server.mean_latency = latency;
                max_latency = latency;
                requests = 100;
              };
          })
        (ids n)
    in
    policy.Policy.rebalance
      { Policy.time = float_of_int round; reports; future_demand = lazy [] };
    Fault.Invariants.Acc.round acc;
    check_int
      (Printf.sprintf "round %d: accumulator clean" round)
      0
      (List.length (Fault.Invariants.Acc.check acc ~cluster));
    let fresh = Fault.Invariants.Acc.create ~cluster ~policy () in
    check_int
      (Printf.sprintf "round %d: fresh rebuild clean" round)
      0
      (List.length (Fault.Invariants.Acc.check fresh ~cluster));
    check_int
      (Printf.sprintf "round %d: full oracle clean" round)
      0
      (List.length (Fault.Invariants.check ~cluster ~policy ()))
  done;
  check_bool "journal drained by the accumulator" true
    (policy.Policy.changed_servers () = [])

(* A fixed counterexample from the property above: the half-occupancy
   violation fires in both modes, and the accumulator's running total
   once printed different [%.12g] digits from the full check's fold. *)
let test_acc_message_digits_regression () =
  check_bool "accumulator texts equal the full check's" true
    (acc_agrees
       ( 535,
         4,
         [
           [ (4601, 928); (4917, 3798); (3502, 487) ];
           [ (6, 2990) ];
           [ (935, 2716); (2209, 1313) ];
           [ (2400, 4004); (2223, 196) ];
           [ (2573, 3850); (4558, 610); (2243, 478) ];
         ] ))

(* Half occupancy at 10,000 servers: [Region_map.scale] skips per-server
   deltas within eps, and once dropped outright they summed to a
   deficit the light invariants report (mapped measure 0.499999998995
   at t = 960 on this stream).  The skipped remainder is now carried,
   so the run stays clean. *)
let test_scale10k_half_occupancy () =
  let cfg = Workload.Dfs_like.default_config in
  let requests = 12_000 and duration = 1_200.0 in
  let factor =
    float_of_int requests /. duration
    /. (float_of_int cfg.Workload.Dfs_like.requests
       /. cfg.Workload.Dfs_like.duration)
  in
  let stream =
    Workload.Dfs_like.stream
      {
        cfg with
        Workload.Dfs_like.requests;
        file_sets = 500;
        duration;
        mean_demand = cfg.Workload.Dfs_like.mean_demand /. factor;
        seed = 7;
      }
  in
  let r =
    Experiments.Runner.run_stream
      (Experiments.Scenario.scale_cluster ~n:10_000)
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~stream ~check_invariants:true ~light_invariants:true ()
  in
  check_bool "rounds ran" true (r.Experiments.Runner.reconfig_rounds >= 9);
  Alcotest.(check (list (pair (float 0.0) string)))
    "no invariant violation" [] r.Experiments.Runner.violations

let suite =
  [
    QCheck_alcotest.to_alcotest prop_incremental_index_matches_rebuild;
    QCheck_alcotest.to_alcotest prop_domain_spread_matches_reference;
    QCheck_alcotest.to_alcotest prop_aggregation_matches_reference;
    QCheck_alcotest.to_alcotest prop_acc_matches_full_recompute;
    Alcotest.test_case "accumulator on live ANU" `Quick test_acc_on_live_anu;
    Alcotest.test_case "accumulator message digits (regression)" `Quick
      test_acc_message_digits_regression;
    Alcotest.test_case "half occupancy holds at 10,000 servers" `Slow
      test_scale10k_half_occupancy;
  ]
