module UI = Hashlib.Unit_interval
module Set = UI.Set
module Id = Sharedfs.Server_id

let eps = UI.eps

type t = {
  mutable p : int;
  mutable regions : Set.t Id.Map.t;
  (* Per-partition buckets of the same segments: [buckets.(j)] holds, in
     ascending [lo] order, every segment overlapping partition [j].
     Because [p] is a power of two, [x *. float p] is an exact scaling
     and [locate] finds its bucket with one multiply instead of a
     binary search over all segments.

     The buckets are maintained {e incrementally}: every region
     mutation goes through [set_region], which patches exactly the
     buckets the changed segments overlap — O(changed segments), not
     O(total).  [rebuild_buckets] recomputes the same table from
     scratch and remains the oracle the patched table is pinned against
     (exposed as [index_consistent]). *)
  mutable buckets : (float * float * Id.t) array array;
  (* Bumped on every mutation; lets callers (the ANU addressing cache)
     detect that any previously computed locate result may be stale. *)
  mutable version : int;
  mutable fallbacks : int;
  (* Monotone scan cursor for the first-fully-free-partition search:
     during a grow phase free measure only shrinks, so a partition
     proven not fully free stays that way and the scan never revisits
     it.  Reset to 0 by anything that can return measure to the free
     set (shrink, removal) or change partition geometry. *)
  mutable free_cursor : int;
  (* Journal of servers whose region changed since the last
     [drain_changed] — what lets per-round invariant accumulators pay
     O(changed) instead of O(n). *)
  touched : (Id.t, unit) Hashtbl.t;
}

let partition_count_for n =
  if n < 1 then invalid_arg "Region_map.partition_count_for: n must be >= 1";
  let rec ceil_log2 acc v = if v >= n then acc else ceil_log2 (acc + 1) (v * 2) in
  let c = ceil_log2 0 1 in
  1 lsl (c + 1)

let width t = 1.0 /. float_of_int t.p

let partition_seg t j =
  let w = width t in
  UI.seg (float_of_int j *. w) (float_of_int (j + 1) *. w)

let servers t = List.map fst (Id.Map.bindings t.regions)

let partitions t = t.p

let region t id =
  match Id.Map.find_opt id t.regions with
  | Some r -> r
  | None ->
    invalid_arg (Format.asprintf "Region_map: unknown %a" Id.pp id)

let mem t id = Id.Map.mem id t.regions

let measure_of t id = Set.measure (region t id)

let measures t =
  Id.Map.bindings t.regions |> List.map (fun (id, r) -> (id, Set.measure r))

let mapped_union t =
  Id.Map.fold (fun _ r acc -> Set.union acc r) t.regions Set.empty

let free_set t = Set.complement (mapped_union t)

let total_measure t = Set.measure (mapped_union t)

let mark_dirty t = t.version <- t.version + 1

let version t = t.version

(* The partitions a segment [lo, hi) overlaps with positive measure:
   [p] is a power of two, so scaling by [float p] is exact and this
   arithmetic agrees bit-for-bit with the lookup in [locate]. *)
let seg_bucket_range t lo hi =
  let p = t.p in
  let fp = float_of_int p in
  let clamp j = if j < 0 then 0 else if j >= p then p - 1 else j in
  let j0 = clamp (int_of_float (lo *. fp)) in
  let scaled_hi = hi *. fp in
  let j1 = int_of_float scaled_hi in
  (* A segment is half-open, so one ending exactly on a partition
     boundary does not reach into the next bucket. *)
  let j1 = clamp (if Float.of_int j1 = scaled_hi then j1 - 1 else j1) in
  (j0, j1)

let sorted_segments t =
  let segs =
    Id.Map.fold
      (fun id r acc ->
        List.fold_left
          (fun acc s -> (s.UI.lo, s.UI.hi, id) :: acc)
          acc (Set.segments r))
      t.regions []
  in
  let arr = Array.of_list segs in
  Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) arr;
  arr

(* Distribute sorted segments into partition buckets. *)
let bucketize t arr =
  let lists = Array.make t.p [] in
  Array.iter
    (fun ((lo, hi, _) as seg) ->
      let j0, j1 = seg_bucket_range t lo hi in
      for j = j0 to j1 do
        lists.(j) <- seg :: lists.(j)
      done)
    arr;
  (* [arr] is sorted ascending, prepending reversed each bucket. *)
  Array.map (fun l -> Array.of_list (List.rev l)) lists

let rebuild_buckets t = t.buckets <- bucketize t (sorted_segments t)

let index_consistent t = bucketize t (sorted_segments t) = t.buckets

(* The single mutation point: replace [id]'s region and patch exactly
   the buckets its old and new segments overlap.  Within one bucket the
   segments are disjoint with measure > eps, so their [lo]s are
   distinct and sorting by [lo] reproduces [bucketize]'s order.  The
   version counter is NOT bumped here — each public operation bumps
   it exactly once via [mark_dirty], preserving the historical
   granularity the addressing cache keys on. *)
let set_region t id new_r =
  let old_segs =
    match Id.Map.find_opt id t.regions with
    | Some r -> Set.segments r
    | None -> []
  in
  let new_segs = Set.segments new_r in
  let js = ref [] in
  let add_range segs =
    List.iter
      (fun s ->
        let j0, j1 = seg_bucket_range t s.UI.lo s.UI.hi in
        for j = j0 to j1 do
          js := j :: !js
        done)
      segs
  in
  add_range old_segs;
  add_range new_segs;
  t.regions <- Id.Map.add id new_r t.regions;
  List.iter
    (fun j ->
      let keep =
        Array.to_list t.buckets.(j)
        |> List.filter (fun (_, _, i) -> not (Id.equal i id))
      in
      let added =
        List.filter_map
          (fun s ->
            let j0, j1 = seg_bucket_range t s.UI.lo s.UI.hi in
            if j0 <= j && j <= j1 then Some (s.UI.lo, s.UI.hi, id) else None)
          new_segs
      in
      let bucket = Array.of_list (keep @ added) in
      Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) bucket;
      t.buckets.(j) <- bucket)
    (List.sort_uniq Int.compare !js);
  Hashtbl.replace t.touched id ()

let drain_changed t =
  let ids = Hashtbl.fold (fun id () acc -> id :: acc) t.touched [] in
  Hashtbl.reset t.touched;
  List.sort Id.compare ids

(* Free space inside partition [j], computed from the bucket alone:
   the partition minus the segments overlapping it.  Equal to
   [Set.restrict (free_set t) (partition_seg t j)] — segments in other
   buckets cannot intersect partition [j] (the bucket arithmetic is
   exact), so subtracting only the bucket's segments loses nothing —
   without the O(n log n) union behind [free_set]. *)
let free_in_partition t j =
  let mapped =
    Array.to_list t.buckets.(j) |> List.map (fun (lo, hi, _) -> UI.seg lo hi)
  in
  Set.diff (Set.of_seg (partition_seg t j)) (Set.of_list mapped)

(* O(1) point location: one multiply finds the partition bucket, then a
   scan of the (at most a few) segments overlapping that partition.
   The buckets are patched on every mutation, so no rebuild check is
   needed here. *)
let locate t x =
  if x < 0.0 || x >= 1.0 then None
  else begin
    let bucket = t.buckets.(int_of_float (x *. float_of_int t.p)) in
    let n = Array.length bucket in
    let rec scan i =
      if i >= n then None
      else
        let lo, hi, id = bucket.(i) in
        (* Sorted by lo: once x precedes a segment it precedes the
           rest of the bucket too. *)
        if x < lo then None
        else if x < hi then Some id
        else scan (i + 1)
    in
    scan 0
  end

(* Per-partition portions of a region: [(j, portion, measure)] for
   partitions where the server owns anything.  Only partitions actually
   overlapped by the region's segments are visited — O(own segments),
   not O(p). *)
let portions t r =
  let js = ref [] in
  List.iter
    (fun s ->
      let j0, j1 = seg_bucket_range t s.UI.lo s.UI.hi in
      for j = j0 to j1 do
        js := j :: !js
      done)
    (Set.segments r);
  List.filter_map
    (fun j ->
      let portion = Set.restrict r (partition_seg t j) in
      let m = Set.measure portion in
      if m > eps then Some (j, portion, m) else None)
    (List.sort_uniq Int.compare !js)

let is_partial t m = m > eps && m < width t -. eps

let partial_partitions t id =
  portions t (region t id)
  |> List.filter (fun (_, _, m) -> is_partial t m)
  |> List.length

(* Release [amount] of measure from [id]'s region, partial chunks
   first (smallest partial first so partials disappear), then whole
   partitions from the high end. *)
let shrink t id amount =
  let need = ref amount in
  while !need > eps do
    let r = region t id in
    let ps = portions t r in
    if ps = [] then need := 0.0
    else begin
      let partials = List.filter (fun (_, _, m) -> is_partial t m) ps in
      let _, portion, m =
        match
          List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b) partials
        with
        | smallest :: _ -> smallest
        | [] ->
          (* No partial: release from the highest full partition. *)
          List.nth ps (List.length ps - 1)
      in
      let take = Float.min !need m in
      let taken, _ = Set.take_high portion take in
      set_region t id (Set.diff r taken);
      need := !need -. Set.measure taken;
      if Set.is_empty taken then need := 0.0
    end
  done;
  (* Freed measure can make earlier partitions fully free again. *)
  t.free_cursor <- 0;
  mark_dirty t

(* First fully free partition, scanning from the cursor: free measure
   only decreases between cursor resets, so a partition once proven not
   fully free stays that way and the scan is amortized O(p) per grow
   phase instead of O(p) per call. *)
let find_fully_free t =
  let w = width t in
  let rec go j =
    if j >= t.p then None
    else if Set.measure (free_in_partition t j) >= w -. eps then Some j
    else begin
      t.free_cursor <- j + 1;
      go (j + 1)
    end
  in
  go t.free_cursor

(* Acquire [amount] of free measure for [id]: top off the server's own
   partial partitions, then claim whole free partitions, then start one
   fresh partial; grabbing shared free space is a counted fallback. *)
let grow t id amount =
  let need = ref amount in
  let progress = ref true in
  while !need > eps && !progress do
    progress := false;
    let r = region t id in
    let own_partial_gap =
      portions t r
      |> List.filter (fun (_, _, m) -> is_partial t m)
      |> List.filter_map (fun (j, _, _) ->
             let gap = free_in_partition t j in
             if Set.is_empty gap then None else Some gap)
    in
    match own_partial_gap with
    | gap :: _ ->
      let take = Float.min !need (Set.measure gap) in
      let taken, _ = Set.take_low gap take in
      set_region t id (Set.union r taken);
      need := !need -. Set.measure taken;
      progress := not (Set.is_empty taken)
    | [] -> begin
      let w = width t in
      match find_fully_free t with
      | Some j when !need >= w -. eps ->
        set_region t id (Set.union r (Set.of_seg (partition_seg t j)));
        need := !need -. w;
        progress := true
      | Some j ->
        let taken, _ = Set.take_low (Set.of_seg (partition_seg t j)) !need in
        set_region t id (Set.union r taken);
        need := !need -. Set.measure taken;
        progress := not (Set.is_empty taken)
      | None ->
        (* Fragmentation fallback: grab any free space.  This is the
           one remaining global-free computation; it never fires in
           healthy runs (see [fragmentation_fallbacks]). *)
        let taken, _ = Set.take_low (free_set t) !need in
        if not (Set.is_empty taken) then begin
          t.fallbacks <- t.fallbacks + 1;
          set_region t id (Set.union r taken);
          need := !need -. Set.measure taken;
          progress := true
        end
    end
  done;
  mark_dirty t

let create ~servers =
  (match servers with
  | [] -> invalid_arg "Region_map.create: no servers"
  | _ -> ());
  let sorted = List.sort_uniq Id.compare servers in
  if List.length sorted <> List.length servers then
    invalid_arg "Region_map.create: duplicate server ids";
  let n = List.length sorted in
  let p = partition_count_for n in
  let t =
    {
      p;
      regions = Id.Map.empty;
      buckets = [||];
      version = 0;
      fallbacks = 0;
      free_cursor = 0;
      touched = Hashtbl.create 64;
    }
  in
  let w = width t in
  let target = 1.0 /. (2.0 *. float_of_int n) in
  let cursor = ref 0 in
  List.iter
    (fun id ->
      let acc = ref Set.empty in
      let need = ref target in
      while !need >= w -. eps do
        acc := Set.union !acc (Set.of_seg (partition_seg t !cursor));
        incr cursor;
        need := !need -. w
      done;
      if !need > eps then begin
        let taken, _ = Set.take_low (Set.of_seg (partition_seg t !cursor)) !need in
        acc := Set.union !acc taken;
        incr cursor
      end;
      t.regions <- Id.Map.add id !acc t.regions)
    sorted;
  (* Buckets must be valid before the first [set_region] patch. *)
  rebuild_buckets t;
  t

let normalize_targets targets =
  let total = List.fold_left (fun acc (_, m) -> acc +. Float.max 0.0 m) 0.0 targets in
  if total <= eps then
    invalid_arg "Region_map.scale: all-zero targets";
  List.map (fun (id, m) -> (id, Float.max 0.0 m *. 0.5 /. total)) targets

(* Deltas within eps are not applied one by one, but dropping them
   outright loses their sum: at 10,000 servers one round skips enough
   of them to pull the mapped total measurably below 1/2.  So each
   sign's skipped remainder is carried into that sign's largest delta
   (the first, on ties), which leaves at most eps per sign unapplied.
   With nothing skipped the deltas are unchanged. *)
let carry_skipped deltas =
  let carry same deltas =
    let skipped, largest =
      List.fold_left
        (fun ((sum, best) as acc) (id, d) ->
          if not (same d) then acc
          else
            let sum = if Float.abs d <= eps then sum +. d else sum in
            match best with
            | Some (_, b) when Float.abs b >= Float.abs d -> (sum, best)
            | _ -> (sum, Some (id, d)))
        (0.0, None) deltas
    in
    match largest with
    | Some (big, d) when skipped <> 0.0 ->
      let d = if Float.abs d <= eps then skipped else d +. skipped in
      List.map (fun (id, x) -> if Id.equal id big then (id, d) else (id, x))
        deltas
    | _ -> deltas
  in
  deltas |> carry (fun d -> d > 0.0) |> carry (fun d -> d < 0.0)

let scale t ~targets =
  let current = servers t in
  let target_ids = List.sort Id.compare (List.map fst targets) in
  if target_ids <> current then
    invalid_arg "Region_map.scale: targets must cover exactly the servers";
  let targets = normalize_targets targets in
  let deltas =
    List.map (fun (id, m) -> (id, m -. measure_of t id)) targets
    |> carry_skipped
  in
  (* Shrink first so that growers see maximal free space. *)
  List.iter
    (fun (id, d) -> if d < -.eps then shrink t id (-.d))
    deltas;
  List.sort (fun (_, a) (_, b) -> Float.compare b a) deltas
  |> List.iter (fun (id, d) -> if d > eps then grow t id d)

let remove_server t id =
  let (_ : Set.t) = region t id in
  set_region t id Set.empty;
  t.regions <- Id.Map.remove id t.regions;
  t.free_cursor <- 0;
  mark_dirty t

let add_server t id ~target =
  if Id.Map.mem id t.regions then
    invalid_arg "Region_map.add_server: server already present";
  let n_new = Id.Map.cardinal t.regions + 1 in
  let needed = partition_count_for n_new in
  (* Re-partitioning doubles p without moving any segment, but the
     bucket geometry changes, so the table is rebuilt wholesale. *)
  if t.p < needed then begin
    while t.p < needed do
      t.p <- t.p * 2
    done;
    rebuild_buckets t;
    t.free_cursor <- 0
  end;
  let target = Float.min (Float.max target 0.0) (0.5 -. eps) in
  (* Make room: shrink everyone proportionally to sum to 1/2 - target. *)
  let current_total = total_measure t in
  if current_total > eps then begin
    let factor = (0.5 -. target) /. current_total in
    Id.Map.iter
      (fun sid r ->
        let m = Set.measure r in
        let excess = m -. (m *. factor) in
        if excess > eps then shrink t sid excess)
      t.regions
  end;
  set_region t id Set.empty;
  grow t id target;
  mark_dirty t

let fragmentation_fallbacks t = t.fallbacks

let check_invariants t =
  let violations = ref [] in
  let add fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt in
  let bindings = Id.Map.bindings t.regions in
  (* Range. *)
  List.iter
    (fun (id, r) ->
      List.iter
        (fun s ->
          if s.UI.lo < -.eps || s.UI.hi > 1.0 +. eps then
            add "%a segment [%g, %g) outside unit interval" Id.pp id s.UI.lo
              s.UI.hi)
        (Set.segments r))
    bindings;
  (* Pairwise disjointness. *)
  let rec pairs = function
    | [] -> ()
    | (id_a, ra) :: rest ->
      List.iter
        (fun (id_b, rb) ->
          if not (Set.disjoint ra rb) then
            add "regions of %a and %a overlap (measure %g)" Id.pp id_a Id.pp
              id_b
              (Set.measure (Set.inter ra rb)))
        rest;
      pairs rest
  in
  pairs bindings;
  (* Half occupancy. *)
  let total = total_measure t in
  if Float.abs (total -. 0.5) > 1e-6 then
    add "total mapped measure %.9f differs from 1/2" total;
  List.rev !violations

(* Wire format: "p=<partitions>;<id>:<lo>~<hi>,<lo>~<hi>;<id>:..." with
   full-precision hex floats ('~' separates bounds because hex-float
   exponents contain '-').  One line, log-friendly. *)
let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "p=%d" t.p);
  Id.Map.iter
    (fun id r ->
      Buffer.add_string buf (Printf.sprintf ";%d:" (Id.to_int id));
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%h~%h" s.UI.lo s.UI.hi))
        (Set.segments r))
    t.regions;
  Buffer.contents buf

let of_string s =
  let fail why = failwith ("Region_map.of_string: " ^ why) in
  match String.split_on_char ';' s with
  | [] -> fail "empty input"
  | header :: server_parts ->
    let p =
      match String.split_on_char '=' header with
      | [ "p"; v ] -> (
        match int_of_string_opt v with
        | Some p when p >= 2 -> p
        | Some _ | None -> fail "bad partition count")
      | _ -> fail "missing p= header"
    in
    let parse_server part =
      match String.split_on_char ':' part with
      | [ id; segs ] -> (
        match int_of_string_opt id with
        | None -> fail "bad server id"
        | Some id ->
          let segments =
            if segs = "" then []
            else
              List.map
                (fun chunk ->
                  match String.split_on_char '~' chunk with
                  | [ lo; hi ] -> (
                    match (float_of_string_opt lo, float_of_string_opt hi) with
                    | Some lo, Some hi -> (
                      try UI.seg lo hi
                      with Invalid_argument why -> fail why)
                    | _ -> fail "bad segment bounds")
                  | _ -> fail "bad segment syntax")
                (String.split_on_char ',' segs)
          in
          (Id.of_int id, Set.of_list segments))
      | _ -> fail "bad server entry"
    in
    let regions =
      List.fold_left
        (fun acc part ->
          let id, r = parse_server part in
          if Id.Map.mem id acc then fail "duplicate server id";
          Id.Map.add id r acc)
        Id.Map.empty server_parts
    in
    if Id.Map.is_empty regions then fail "no servers";
    let t =
      {
        p;
        regions;
        buckets = [||];
        version = 0;
        fallbacks = 0;
        free_cursor = 0;
        touched = Hashtbl.create 64;
      }
    in
    rebuild_buckets t;
    (match check_invariants t with
    | [] -> t
    | violations -> fail (String.concat "; " violations))

let pp fmt t =
  Format.fprintf fmt "@[<v>%d partitions (width %g)@," t.p (width t);
  Id.Map.iter
    (fun id r ->
      Format.fprintf fmt "%a: measure %.6f %a@," Id.pp id (Set.measure r)
        Set.pp r)
    t.regions;
  Format.fprintf fmt "free: %a@]" Set.pp (free_set t)
