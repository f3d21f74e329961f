module Cluster = Sharedfs.Cluster
module Server = Sharedfs.Server
module Server_id = Sharedfs.Server_id

type violation = { time : float; what : string }

let pp_violation ppf v = Fmt.pf ppf "[t=%.3f] %s" v.time v.what

let check_regions ~eps policy =
  match policy.Placement.Policy.regions () with
  | [] -> []
  | regions ->
    let negative =
      List.filter_map
        (fun (id, m) ->
          if m < -.eps then
            Some
              (Printf.sprintf "server %d region measure is negative: %.12g"
                 (Server_id.to_int id) m)
          else None)
        regions
    in
    let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 regions in
    if Float.abs (total -. 0.5) > eps then
      Printf.sprintf
        "half-occupancy broken: mapped measure %.12g, expected 0.5" total
      :: negative
    else negative

let check_ownership cluster =
  let states = Cluster.ownership_states cluster in
  let placed =
    List.filter_map
      (fun (name, state) ->
        match state with
        | Cluster.State_owned id ->
          let s = Cluster.server cluster id in
          if Server.failed s then
            Some
              (Printf.sprintf "file set %s owned by failed server %d" name
                 (Server_id.to_int id))
          else None
        | Cluster.State_moving { dst; _ } ->
          let s = Cluster.server cluster dst in
          if Server.failed s then
            Some
              (Printf.sprintf
                 "file set %s moving toward failed server %d" name
                 (Server_id.to_int dst))
          else None
        | Cluster.State_orphaned _ -> None)
      states
  in
  (* Single ownership means exactly one state per catalog name: no
     name missing (silently gone), no name twice (two owners). *)
  let names = List.map fst states in
  let catalog = Sharedfs.File_set.Catalog.names (Cluster.catalog cluster) in
  let missing =
    List.filter_map
      (fun n ->
        if List.mem n names then None
        else Some (Printf.sprintf "file set %s has no placement state" n))
      catalog
  in
  let rec dups = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then
        Printf.sprintf "file set %s has two placement states" a :: dups rest
      else dups rest
    | [ _ ] | [] -> []
  in
  placed @ missing @ dups names

let check_conservation cluster =
  let c = Cluster.conservation cluster in
  let accounted =
    c.Cluster.completed + c.Cluster.inflight + c.Cluster.buffered
    + c.Cluster.lock_waiting
  in
  if accounted <> c.Cluster.submitted then
    [
      Printf.sprintf
        "request conservation broken: submitted %d <> completed %d + \
         inflight %d + buffered %d + lock_waiting %d"
        c.Cluster.submitted c.Cluster.completed c.Cluster.inflight
        c.Cluster.buffered c.Cluster.lock_waiting;
    ]
  else []

(* Split-brain safety: however many servers still believe they hold
   the delegate lease, at most one of them is alive and unfenced — and
   that one's epoch matches the lease on disk. *)
let check_delegate_lease cluster =
  let disk = Cluster.disk cluster in
  let current_epoch = Cluster.delegate_epoch cluster in
  let live =
    List.filter
      (fun (id, _) ->
        (not (Server.failed (Cluster.server cluster id)))
        && not
             (Sharedfs.Shared_disk.is_fenced disk
                ~server:(Server_id.to_int id)))
      (Cluster.delegate_believers cluster)
  in
  let stale =
    List.filter_map
      (fun (id, epoch) ->
        if epoch < current_epoch then
          Some
            (Printf.sprintf
               "live delegate believer %d holds stale epoch %d (current %d)"
               (Server_id.to_int id) epoch current_epoch)
        else None)
      live
  in
  match live with
  | [] | [ _ ] -> stale
  | many ->
    Printf.sprintf "two live delegates: servers %s believe they hold the lease"
      (String.concat ", "
         (List.map (fun (id, _) -> string_of_int (Server_id.to_int id)) many))
    :: stale

(* Fencing: every partitioned server is actually fenced at the disk,
   and no zombie write has ever landed. *)
let check_fencing cluster =
  let disk = Cluster.disk cluster in
  let unfenced =
    List.filter_map
      (fun (id, _) ->
        if Sharedfs.Shared_disk.is_fenced disk ~server:(Server_id.to_int id)
        then None
        else
          Some
            (Printf.sprintf "partitioned server %d is not fenced at the disk"
               (Server_id.to_int id)))
      (Cluster.partitioned_servers cluster)
  in
  let attempts, rejected = Cluster.zombie_stats cluster in
  if attempts <> rejected then
    Printf.sprintf
      "fenced writes leaked: %d zombie write(s) landed (%d attempted, %d \
       rejected)"
      (attempts - rejected) attempts rejected
    :: unfenced
  else unfenced

(* Crash consistency: the on-disk ledger, replayed, must agree with
   in-memory ownership (repairing torn records first — a torn record
   with a live mirror is recoverable, not divergent). *)
let check_ledger cluster =
  let report = Cluster.fsck ~repair:true cluster in
  List.map (fun d -> "ledger divergence: " ^ d) report.Cluster.divergent

(* Domain spread: no failure domain's share of the mapped half of the
   unit interval may exceed its share of the map's servers plus
   [slack] — the geometric form of the collateral bound, checked
   against whatever the placement policy exposes.  Policies that
   expose no regions (round-robin) and flat topologies are exempt.
   Mirrors [Anu.apply_domain_spread]: shares are taken over the
   servers present in the map, so a domain whose peers all died is
   entitled to the whole interval. *)
let domain_spread ?(slack = 0.1) ~cluster ~policy () =
  let topology = Cluster.topology cluster in
  if Sharedfs.Topology.is_flat topology then []
  else
    match policy.Placement.Policy.regions () with
    | [] -> []
    | regions ->
      let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 regions in
      let n = List.length regions in
      if total <= 0.0 then []
      else
        let in_domain name =
          List.filter
            (fun (id, _) ->
              match Sharedfs.Topology.domain_of topology id with
              | Some d -> String.equal d name
              | None -> false)
            regions
        in
        List.filter_map
          (fun (d : Sharedfs.Topology.domain) ->
            let members = in_domain d.Sharedfs.Topology.name in
            let k = List.length members in
            if k = 0 then None
            else
              let measure =
                List.fold_left (fun acc (_, m) -> acc +. m) 0.0 members
              in
              let cap =
                Float.min 1.0
                  ((float_of_int k /. float_of_int n) +. slack)
                *. total
              in
              if measure > cap +. 1e-9 then
                Some
                  (Printf.sprintf
                     "domain spread broken: domain %s maps %.12g of %.12g \
                      (%d of %d servers, cap %.12g)"
                     d.Sharedfs.Topology.name measure total k n cap)
              else None)
          (Sharedfs.Topology.domains topology)

(* Collateral bound: the fraction of placed file sets (owned, or
   moving toward) inside any one failure domain must not exceed the
   geometric cap [share + slack] plus a three-sigma binomial
   allowance, [3 sqrt(cap (1 - cap) / placed)], for hashing noise — a
   spread-constrained domain sits {e at} its cap, so set counts
   scatter around it and the allowance must absorb that scatter
   without also absolving a genuinely over-concentrated domain.  This
   is the quantity a whole-domain failure puts at stake — the check
   that separates spread-constrained ANU from the flat baseline. *)
let collateral_bounded ?(slack = 0.1) ~cluster () =
  let topology = Cluster.topology cluster in
  if Sharedfs.Topology.is_flat topology then []
  else
    let alive id = not (Server.failed (Cluster.server cluster id)) in
    let placed =
      List.filter_map
        (fun (_, state) ->
          match state with
          | Cluster.State_owned id -> Some id
          | Cluster.State_moving { dst; _ } -> Some dst
          | Cluster.State_orphaned _ -> None)
        (Cluster.ownership_states cluster)
    in
    let total = List.length placed in
    let alive_total =
      List.length
        (List.filter alive (Sharedfs.Topology.all_servers topology))
    in
    if total = 0 || alive_total = 0 then []
    else
      List.filter_map
        (fun (d : Sharedfs.Topology.domain) ->
          let members = List.filter alive d.Sharedfs.Topology.servers in
          let share =
            float_of_int (List.length members) /. float_of_int alive_total
          in
          let owned =
            List.length
              (List.filter
                 (fun id ->
                   match Sharedfs.Topology.domain_of topology id with
                   | Some name -> String.equal name d.Sharedfs.Topology.name
                   | None -> false)
                 placed)
          in
          let fraction = float_of_int owned /. float_of_int total in
          let cap = Float.min 1.0 (share +. slack) in
          let allowance =
            3.0 *. Float.sqrt (cap *. (1.0 -. cap) /. float_of_int total)
          in
          let bound = cap +. allowance in
          if fraction > bound +. 1e-9 then
            Some
              (Printf.sprintf
                 "collateral unbounded: domain %s holds %d of %d placed file \
                  sets (%.3f > bound %.3f = cap %.3f [share %.3f + slack \
                  %.3f] + 3-sigma allowance %.3f)"
                 d.Sharedfs.Topology.name owned total fraction bound cap share
                 slack allowance)
          else None)
        (Sharedfs.Topology.domains topology)

(* Delta-maintained accumulators for the per-round invariants whose
   full recompute walks the whole cluster: half occupancy, negative
   regions and domain spread (conservation is already O(1) counters).
   [round] drains the policy's changed-server journal and applies the
   measure deltas — O(changed servers); membership events call
   [resync], a full O(n) rebuild that makes the state exact again.
   The full recompute above is retained as the oracle: the test suite
   pins that both report the same verdicts and texts.  The running
   float sums can differ from the fold-from-scratch sums in the last
   bits, ~1e-15 per round against thresholds of 1e-9: verdicts agree
   far from the threshold, but the [%.12g] digits of a sum need not.
   So the verdict comes from the running sums, and only a violation
   that fires re-folds the sums it prints, in the full check's order —
   O(n) on the violation path, O(changed) otherwise. *)
module Acc = struct
  type acc = {
    policy : Placement.Policy.t;
    topology : Sharedfs.Topology.t;
    eps : float;
    slack : float;
    measures : (Server_id.t, float) Hashtbl.t;
    mutable total : float;
    mutable n : int; (* servers currently in the map *)
    domain_sum : (string, float) Hashtbl.t;
    domain_k : (string, int) Hashtbl.t; (* members present in the map *)
    mutable negatives : Server_id.Set.t;
  }

  type t = acc

  let resync t =
    Hashtbl.reset t.measures;
    Hashtbl.reset t.domain_sum;
    Hashtbl.reset t.domain_k;
    t.total <- 0.0;
    t.negatives <- Server_id.Set.empty;
    let regions = t.policy.Placement.Policy.regions () in
    t.n <- List.length regions;
    List.iter
      (fun (id, m) ->
        Hashtbl.replace t.measures id m;
        t.total <- t.total +. m;
        if m < -.t.eps then t.negatives <- Server_id.Set.add id t.negatives;
        match Sharedfs.Topology.domain_of t.topology id with
        | None -> ()
        | Some name ->
          Hashtbl.replace t.domain_sum name
            (Option.value ~default:0.0 (Hashtbl.find_opt t.domain_sum name)
            +. m);
          Hashtbl.replace t.domain_k name
            (Option.value ~default:0 (Hashtbl.find_opt t.domain_k name) + 1))
      regions;
    (* The journal reflects mutations the rebuild just absorbed. *)
    let (_ : (Server_id.t * float) list) =
      t.policy.Placement.Policy.changed_servers ()
    in
    ()

  let create ?(eps = 1e-9) ?(slack = 0.1) ~cluster ~policy () =
    let t =
      {
        policy;
        topology = Cluster.topology cluster;
        eps;
        slack;
        measures = Hashtbl.create 64;
        total = 0.0;
        n = 0;
        domain_sum = Hashtbl.create 8;
        domain_k = Hashtbl.create 8;
        negatives = Server_id.Set.empty;
      }
    in
    resync t;
    t

  (* Apply one round's measure deltas.  Membership is deliberately NOT
     inferred here (a removed server and one tuned to measure zero
     both report 0.0): the runner resyncs on membership events, so
     between resyncs [n] and the per-domain member counts are
     constant and only the sums move. *)
  let round t =
    List.iter
      (fun (id, m) ->
        let old = Option.value ~default:0.0 (Hashtbl.find_opt t.measures id) in
        t.total <- t.total +. (m -. old);
        Hashtbl.replace t.measures id m;
        t.negatives <-
          (if m < -.t.eps then Server_id.Set.add id t.negatives
           else Server_id.Set.remove id t.negatives);
        match Sharedfs.Topology.domain_of t.topology id with
        | None -> ()
        | Some name ->
          Hashtbl.replace t.domain_sum name
            (Option.value ~default:0.0 (Hashtbl.find_opt t.domain_sum name)
            +. (m -. old)))
      (t.policy.Placement.Policy.changed_servers ())

  (* Same verdicts and message formats as [check_regions],
     [check_conservation] and [domain_spread], from the running state:
     O(#negatives + #domains) instead of O(n). *)
  let check t ~cluster =
    let time = Desim.Sim.now (Cluster.sim cluster) in
    (* The violation path's fresh folds, as [check_regions] and
       [domain_spread] compute them from [policy.regions ()]. *)
    let regions = lazy (t.policy.Placement.Policy.regions ()) in
    let fold_total () =
      List.fold_left (fun acc (_, m) -> acc +. m) 0.0 (Lazy.force regions)
    in
    let fold_domain name =
      List.fold_left
        (fun acc (id, m) ->
          match Sharedfs.Topology.domain_of t.topology id with
          | Some d when String.equal d name -> acc +. m
          | Some _ | None -> acc)
        0.0 (Lazy.force regions)
    in
    let regions_violations =
      if t.n = 0 then []
      else begin
        let negative =
          List.filter_map
            (fun id ->
              let m =
                Option.value ~default:0.0 (Hashtbl.find_opt t.measures id)
              in
              if m < -.t.eps then
                Some
                  (Printf.sprintf "server %d region measure is negative: %.12g"
                     (Server_id.to_int id) m)
              else None)
            (Server_id.Set.elements t.negatives)
        in
        if Float.abs (t.total -. 0.5) > t.eps then
          Printf.sprintf
            "half-occupancy broken: mapped measure %.12g, expected 0.5"
            (fold_total ())
          :: negative
        else negative
      end
    in
    let spread_violations =
      if Sharedfs.Topology.is_flat t.topology || t.n = 0 || t.total <= 0.0
      then []
      else
        List.filter_map
          (fun (d : Sharedfs.Topology.domain) ->
            let name = d.Sharedfs.Topology.name in
            match Hashtbl.find_opt t.domain_k name with
            | None | Some 0 -> None
            | Some k ->
              let measure =
                Option.value ~default:0.0 (Hashtbl.find_opt t.domain_sum name)
              in
              let cap total =
                Float.min 1.0
                  ((float_of_int k /. float_of_int t.n) +. t.slack)
                *. total
              in
              if measure > cap t.total +. 1e-9 then
                let total = fold_total () in
                Some
                  (Printf.sprintf
                     "domain spread broken: domain %s maps %.12g of %.12g \
                      (%d of %d servers, cap %.12g)"
                     name (fold_domain name) total k t.n (cap total))
              else None)
          (Sharedfs.Topology.domains t.topology)
    in
    let whats =
      regions_violations @ check_conservation cluster @ spread_violations
    in
    List.map (fun what -> { time; what }) whats
end

let check ?(eps = 1e-9) ?(spread_slack = 0.1) ?extra ~cluster ~policy () =
  let time = Desim.Sim.now (Cluster.sim cluster) in
  let whats =
    check_regions ~eps policy
    @ policy.Placement.Policy.check ()
    @ check_ownership cluster
    @ check_conservation cluster
    @ check_delegate_lease cluster
    @ check_fencing cluster
    @ check_ledger cluster
    @ domain_spread ~slack:spread_slack ~cluster ~policy ()
    @ collateral_bounded ~slack:spread_slack ~cluster ()
    @ (match extra with None -> [] | Some f -> f ())
  in
  List.map (fun what -> { time; what }) whats
