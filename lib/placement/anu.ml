module Id = Sharedfs.Server_id

type config = {
  name : string;
  hash_rounds : int;
  heuristics : Heuristics.t;
  averaging : Average.method_;
  growth_cap : float;
  shrink_floor : float;
  min_region : float;
  domain_spread : float option;
}

let default_config =
  {
    name = "anu";
    hash_rounds = 20;
    heuristics = Heuristics.all_three;
    (* The paper used a request-weighted mean and reports the median
       works as well.  Under heavy overload the weighted mean can be
       dominated by the overloaded server's own completions, raising
       the threshold band above its latency and blocking the shrink;
       the median has no such failure mode, so it is the default here
       (the ablation-average bench compares the two). *)
    averaging = Average.Median;
    growth_cap = 2.0;
    shrink_floor = 0.25;
    min_region = 0.05;
    domain_spread = Some 0.1;
  }

(* Reusable flat-array state for the domain-spread water-filling: all
   arrays are keyed by dense target index (position in the targets
   list) or dense group index (position in the sorted domain-name
   list, fixed at creation), and are resized only when the cluster
   grows — a retune round allocates no per-round lists or tables. *)
type spread_scratch = {
  mutable w : float array; (* weight per target index *)
  mutable g_of : int array; (* group per target index, -1 = none *)
  mutable member : int array; (* target indices grouped by CSR *)
  g_start : int array; (* CSR offsets, length #groups + 1 *)
  g_count : int array;
  g_cap : float array;
  g_frozen : bool array;
}

type t = {
  cfg : config;
  family : Hashlib.Hash_family.t;
  topology : Sharedfs.Topology.t;
  map : Region_map.t;
  mutable alive : Id.t array; (* sorted, for the direct fallback hash *)
  previous_latency : (Id.t, float) Hashtbl.t;
  mutable reconfigurations : int;
  (* Domain names in sorted order and their dense indices — the group
     iteration order of the spread clamp (immutable after creation,
     like the topology itself). *)
  group_index : (string, int) Hashtbl.t;
  group_count : int;
  mutable scratch : spread_scratch;
  (* Reusable membership table for the per-round report pruning. *)
  reported : (Id.t, unit) Hashtbl.t;
  (* Addressing cache: name -> (owner, probe count), valid only for
     [cache_version] of the region map.  Every reconfiguration (retune,
     failure, addition) bumps the map version, so the whole cache is
     flushed before the first lookup after any change and stale owners
     can never be served.  [alive] — the only other input to
     addressing — changes solely alongside map mutations, so the map
     version covers it too. *)
  cache : (string, Id.t * int) Hashtbl.t;
  mutable cache_version : int;
}

let create ?(config = default_config) ?topology ~family ~servers () =
  if config.hash_rounds < 1 then
    invalid_arg "Anu.create: hash_rounds must be >= 1";
  if config.growth_cap <= 1.0 then
    invalid_arg "Anu.create: growth_cap must exceed 1";
  if config.shrink_floor <= 0.0 || config.shrink_floor >= 1.0 then
    invalid_arg "Anu.create: shrink_floor must lie in (0, 1)";
  (match config.domain_spread with
  | Some eps when eps <= 0.0 ->
    invalid_arg "Anu.create: domain_spread must be positive"
  | _ -> ());
  let sorted = List.sort_uniq Id.compare servers in
  let topology =
    match topology with
    | Some topo -> topo
    | None -> Sharedfs.Topology.flat ~servers:sorted
  in
  let sorted_names =
    List.sort String.compare (Sharedfs.Topology.domain_names topology)
  in
  let group_count = List.length sorted_names in
  let group_index = Hashtbl.create (2 * group_count) in
  List.iteri (fun g name -> Hashtbl.replace group_index name g) sorted_names;
  let n = List.length sorted in
  {
    cfg = config;
    family;
    topology;
    map = Region_map.create ~servers:sorted;
    alive = Array.of_list sorted;
    previous_latency = Hashtbl.create 16;
    reconfigurations = 0;
    group_index;
    group_count;
    scratch =
      {
        w = Array.make n 0.0;
        g_of = Array.make n (-1);
        member = Array.make n 0;
        g_start = Array.make (group_count + 1) 0;
        g_count = Array.make (Int.max group_count 1) 0;
        g_cap = Array.make (Int.max group_count 1) 0.0;
        g_frozen = Array.make (Int.max group_count 1) false;
      };
    reported = Hashtbl.create (2 * n);
    cache = Hashtbl.create 256;
    cache_version = -1;
  }

let config t = t.cfg

let topology t = t.topology

let region_map t = t.map

(* Water-filling enforcement of the domain-spread cap.  [targets] are
   the relative weights about to be normalized to half occupancy by
   [Region_map.scale]; the cap bounds each failure domain at
   [alive share + domain_spread] of the mapped half, where the alive
   share is the domain's fraction of the servers present in [targets]
   (so a domain whose peers all died is entitled to everything and a
   recovery is never blocked).  Over-cap domains are clamped and
   frozen; the freed weight is spread over the rest proportionally,
   which can push another domain over its cap, so iterate — the frozen
   set grows every round and the caps of any proper subset of domains
   sum to strictly less than the clamped weight they could absorb, so
   at least one domain can never freeze and the loop ends within
   [#domains] rounds.  Servers outside every domain are unconstrained
   and only ever absorb freed weight.

   This runs on the reusable scratch arrays.  Its output is
   byte-identical to the original list/Hashtbl implementation, which
   the test suite keeps as its oracle: group iteration follows the
   sorted-name order the reference sorts into, per-group sums run over
   members in reverse targets order (the reference prepends members
   while walking the targets list), and the frozen/free folds keep the
   reference's exact float summation orders. *)
let apply_domain_spread t targets =
  match t.cfg.domain_spread with
  | _ when Sharedfs.Topology.is_flat t.topology -> targets
  | None -> targets
  | Some eps ->
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 targets in
    let n = List.length targets in
    if n = 0 || total <= Hashlib.Unit_interval.eps then targets
    else begin
      let s = t.scratch in
      if Array.length s.w < n then begin
        s.w <- Array.make n 0.0;
        s.g_of <- Array.make n (-1);
        s.member <- Array.make n 0
      end;
      let ng = t.group_count in
      List.iteri
        (fun i (id, w) ->
          s.w.(i) <- w;
          s.g_of.(i) <-
            (match Sharedfs.Topology.domain_of t.topology id with
            | None -> -1
            | Some name -> Hashtbl.find t.group_index name))
        targets;
      Array.fill s.g_count 0 ng 0;
      for i = 0 to n - 1 do
        let g = s.g_of.(i) in
        if g >= 0 then s.g_count.(g) <- s.g_count.(g) + 1
      done;
      (* CSR member table, filled forward (ascending target index). *)
      let acc = ref 0 in
      for g = 0 to ng - 1 do
        s.g_start.(g) <- !acc;
        acc := !acc + s.g_count.(g)
      done;
      s.g_start.(ng) <- !acc;
      let fill = Array.sub s.g_start 0 (Int.max ng 1) in
      for i = 0 to n - 1 do
        let g = s.g_of.(i) in
        if g >= 0 then begin
          s.member.(fill.(g)) <- i;
          fill.(g) <- fill.(g) + 1
        end
      done;
      (* Members were appended in targets order; the reference builds
         its member lists by prepending, so its group sums run in
         reverse targets order — iterate the CSR slice backwards. *)
      let group_sum g =
        let sum = ref 0.0 in
        for k = s.g_start.(g + 1) - 1 downto s.g_start.(g) do
          sum := !sum +. s.w.(s.member.(k))
        done;
        !sum
      in
      for g = 0 to ng - 1 do
        s.g_cap.(g) <-
          Float.min 1.0
            ((float_of_int s.g_count.(g) /. float_of_int n) +. eps)
          *. total;
        s.g_frozen.(g) <- false
      done;
      let continue = ref true in
      while !continue do
        let any_over = ref false in
        for g = 0 to ng - 1 do
          if
            s.g_count.(g) > 0
            && (not s.g_frozen.(g))
            && group_sum g > s.g_cap.(g) +. (1e-9 *. total)
          then begin
            any_over := true;
            let factor = s.g_cap.(g) /. group_sum g in
            for k = s.g_start.(g) to s.g_start.(g + 1) - 1 do
              let i = s.member.(k) in
              s.w.(i) <- s.w.(i) *. factor
            done;
            s.g_frozen.(g) <- true
          end
        done;
        if not !any_over then continue := false
        else begin
          let frozen_weight = ref 0.0 in
          for g = 0 to ng - 1 do
            if s.g_count.(g) > 0 && s.g_frozen.(g) then
              frozen_weight := !frozen_weight +. group_sum g
          done;
          let free_target = total -. !frozen_weight in
          let free_current = ref 0.0 in
          let free_count = ref 0 in
          for i = 0 to n - 1 do
            let g = s.g_of.(i) in
            if g < 0 || not s.g_frozen.(g) then begin
              free_current := !free_current +. s.w.(i);
              incr free_count
            end
          done;
          if !free_current > Hashlib.Unit_interval.eps then begin
            let factor = free_target /. !free_current in
            for i = 0 to n - 1 do
              let g = s.g_of.(i) in
              if g < 0 || not s.g_frozen.(g) then s.w.(i) <- s.w.(i) *. factor
            done
          end
          else if !free_count = 0 then continue := false
          else begin
            (* The freed weight has nowhere proportional to go (the
               survivors all sat at zero): grant it equally. *)
            let share = free_target /. float_of_int !free_count in
            for i = 0 to n - 1 do
              let g = s.g_of.(i) in
              if g < 0 || not s.g_frozen.(g) then s.w.(i) <- share
            done
          end
        end
      done;
      List.mapi (fun i (id, _) -> (id, s.w.(i))) targets
    end

let reconfigurations t = t.reconfigurations

let locate_uncached t name =
  let rec probe round =
    if round >= t.cfg.hash_rounds then
      (* Bounded rounds exhausted (probability 2^-rounds): hash the
         name straight to an alive server. *)
      let idx =
        Hashlib.Hash_family.fallback_index t.family name
          ~n:(Array.length t.alive)
      in
      (t.alive.(idx), t.cfg.hash_rounds + 1)
    else
      let x = Hashlib.Hash_family.point t.family ~round name in
      match Region_map.locate t.map x with
      | Some id -> (id, round + 1)
      | None -> probe (round + 1)
  in
  probe 0

let locate_with_rounds t name =
  if Array.length t.alive = 0 then failwith "Anu.locate: no alive servers";
  let version = Region_map.version t.map in
  if version <> t.cache_version then begin
    (* [clear], not [reset]: keep the grown bucket table so a flush
       after steady state does not re-pay the resize ramp. *)
    Hashtbl.clear t.cache;
    t.cache_version <- version
  end;
  match Hashtbl.find_opt t.cache name with
  | Some result -> result
  | None ->
    let result = locate_uncached t name in
    (* The cached probe count keeps locate_with_rounds a pure function
       of (map, name) whether or not the cache hits.  [add] suffices:
       the miss path runs at most once per name per version. *)
    Hashtbl.add t.cache name result;
    result

let locate t name = fst (locate_with_rounds t name)

let rebalance t feedback =
  let reports = feedback.Policy.reports in
  let average = Average.compute t.cfg.averaging reports in
  if average > 0.0 then begin
    let width = Region_map.width t.map in
    let changed = ref false in
    let target_of (report : Sharedfs.Delegate.server_report) =
      let id = report.Sharedfs.Delegate.server in
      let latency = report.report.Sharedfs.Server.mean_latency in
      let m = Region_map.measure_of t.map id in
      let previous = Hashtbl.find_opt t.previous_latency id in
      match
        Heuristics.decide t.cfg.heuristics ~average ~latency ~previous
      with
      | Heuristics.Hold -> (id, m)
      | Heuristics.Shrink ->
        let factor = Float.max t.cfg.shrink_floor (average /. latency) in
        changed := true;
        (id, m *. factor)
      | Heuristics.Grow ->
        let factor =
          if latency <= 0.0 then t.cfg.growth_cap
          else Float.min t.cfg.growth_cap (average /. latency)
        in
        changed := true;
        (* A region at (or near) zero cannot grow multiplicatively;
           grant it a fraction of a partition to re-enter service. *)
        (id, Float.max (m *. factor) (t.cfg.min_region *. width))
    in
    (* Reports can be a strict subset of the map's servers when the
       delegate round lost some (fault injection) — a server we heard
       nothing from holds its current region rather than crashing the
       reconfiguration.  Reports from servers not in the map (just
       removed) are dropped for the same reason.  Both prunings are
       hash-set membership tests: the former list scans were O(n²) per
       round and dominated big-cluster rounds. *)
    let reports =
      List.filter
        (fun (r : Sharedfs.Delegate.server_report) ->
          Region_map.mem t.map r.Sharedfs.Delegate.server)
        reports
    in
    let targets = List.map target_of reports in
    Hashtbl.reset t.reported;
    List.iter (fun (id, _) -> Hashtbl.replace t.reported id ()) targets;
    let holds =
      List.filter
        (fun (id, _) -> not (Hashtbl.mem t.reported id))
        (Region_map.measures t.map)
    in
    let targets = targets @ holds in
    if !changed then begin
      Region_map.scale t.map ~targets:(apply_domain_spread t targets);
      t.reconfigurations <- t.reconfigurations + 1
    end;
    List.iter
      (fun (r : Sharedfs.Delegate.server_report) ->
        Hashtbl.replace t.previous_latency r.Sharedfs.Delegate.server
          r.report.Sharedfs.Server.mean_latency)
      reports
  end

let server_failed t id =
  Region_map.remove_server t.map id;
  (* Survivors scale up proportionally to restore half occupancy; only
     the dead server's file sets re-hash. *)
  let survivors = Region_map.measures t.map in
  (match survivors with
  | [] -> ()
  | _ ->
    let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 survivors in
    let targets =
      if total > Hashlib.Unit_interval.eps then survivors
      else List.map (fun (sid, _) -> (sid, 1.0)) survivors
    in
    Region_map.scale t.map ~targets:(apply_domain_spread t targets));
  t.alive <-
    Array.of_list
      (List.filter (fun sid -> not (Id.equal sid id)) (Array.to_list t.alive));
  Hashtbl.remove t.previous_latency id;
  t.reconfigurations <- t.reconfigurations + 1

let server_added t id =
  let n_new = List.length (Region_map.servers t.map) + 1 in
  Region_map.add_server t.map id ~target:(1.0 /. (2.0 *. float_of_int n_new));
  (* The uniform grant changes every domain's fraction of the mapped
     half, so the spread cap is re-checked; with a flat topology (or
     the constraint disabled) this is a no-op and the add stays
     byte-identical to the unconstrained behaviour. *)
  (let measures = Region_map.measures t.map in
   let spread = apply_domain_spread t measures in
   let differs =
     List.exists2
       (fun (_, a) (_, b) -> Float.abs (a -. b) > 1e-12)
       measures spread
   in
   if differs then Region_map.scale t.map ~targets:spread);
  t.alive <-
    Array.of_list (List.sort Id.compare (id :: Array.to_list t.alive));
  t.reconfigurations <- t.reconfigurations + 1

(* The delegate holds the only non-replicated state: the previous
   latencies used by divergent tuning.  When it crashes, the next
   elected delegate starts without them and the divergent policy is
   simply not evaluated for one interval, exactly as the paper
   prescribes. *)
let forget_history t = Hashtbl.reset t.previous_latency

let policy t =
  {
    Policy.name = t.cfg.name;
    locate = locate t;
    rebalance = rebalance t;
    server_failed = server_failed t;
    server_added = server_added t;
    delegate_crashed = (fun () -> forget_history t);
    regions = (fun () -> Region_map.measures t.map);
    changed_servers =
      (fun () ->
        List.map
          (fun id ->
            let m =
              if Region_map.mem t.map id then Region_map.measure_of t.map id
              else 0.0
            in
            (id, m))
          (Region_map.drain_changed t.map));
    check = (fun () -> Region_map.check_invariants t.map);
  }
