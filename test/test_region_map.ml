(* Region_map: the ANU geometry — partition math, half occupancy,
   disjointness, minimal movement, repartitioning. *)

module RM = Placement.Region_map
module Id = Sharedfs.Server_id
module Set = Hashlib.Unit_interval.Set

let check_int = Alcotest.(check int)
let check_float eps = Alcotest.(check (float eps))
let check_bool = Alcotest.(check bool)

let ids n = List.init n Id.of_int

let assert_healthy t =
  match RM.check_invariants t with
  | [] -> ()
  | violations -> Alcotest.failf "invariants: %s" (String.concat "; " violations)

let test_partition_count () =
  List.iter
    (fun (n, expected) ->
      check_int (Printf.sprintf "p(%d)" n) expected (RM.partition_count_for n))
    [ (1, 2); (2, 4); (3, 8); (4, 8); (5, 16); (8, 16); (9, 32); (16, 32) ];
  Alcotest.check_raises "n=0"
    (Invalid_argument "Region_map.partition_count_for: n must be >= 1")
    (fun () -> ignore (RM.partition_count_for 0))

let test_create_uniform () =
  let t = RM.create ~servers:(ids 5) in
  check_int "partitions" 16 (RM.partitions t);
  check_float 1e-12 "width" (1.0 /. 16.0) (RM.width t);
  assert_healthy t;
  List.iter
    (fun (_, m) -> check_float 1e-9 "uniform share" 0.1 m)
    (RM.measures t);
  check_float 1e-9 "half occupancy" 0.5 (RM.total_measure t);
  (* Every server respects the one-partial-partition discipline. *)
  List.iter
    (fun id ->
      check_bool "<=1 partial" true (RM.partial_partitions t id <= 1))
    (ids 5)

let test_create_single_server () =
  let t = RM.create ~servers:(ids 1) in
  check_int "partitions" 2 (RM.partitions t);
  check_float 1e-9 "measure" 0.5 (RM.measure_of t (Id.of_int 0));
  assert_healthy t

let test_create_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Region_map.create: no servers")
    (fun () -> ignore (RM.create ~servers:[]));
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Region_map.create: duplicate server ids") (fun () ->
      ignore (RM.create ~servers:[ Id.of_int 1; Id.of_int 1 ]))

let test_locate_total_on_mapped_points () =
  let t = RM.create ~servers:(ids 5) in
  (* Sample densely: every point is either free or owned by exactly
     the server whose region contains it. *)
  for i = 0 to 999 do
    let x = (float_of_int i +. 0.5) /. 1000.0 in
    let owner = RM.locate t x in
    let holders =
      List.filter (fun id -> Set.mem (RM.region t id) x) (ids 5)
    in
    match (owner, holders) with
    | Some o, [ h ] -> check_bool "consistent" true (Id.equal o h)
    | None, [] -> ()
    | Some _, [] -> Alcotest.fail "locate found owner but no region contains x"
    | None, _ :: _ -> Alcotest.fail "region contains x but locate missed it"
    | Some _, _ :: _ :: _ -> Alcotest.fail "overlapping regions"
  done

let test_scale_changes_measures () =
  let t = RM.create ~servers:(ids 4) in
  let targets =
    [ (Id.of_int 0, 0.05); (Id.of_int 1, 0.10); (Id.of_int 2, 0.15);
      (Id.of_int 3, 0.20) ]
  in
  RM.scale t ~targets;
  assert_healthy t;
  check_float 1e-6 "srv0" 0.05 (RM.measure_of t (Id.of_int 0));
  check_float 1e-6 "srv3" 0.20 (RM.measure_of t (Id.of_int 3));
  check_float 1e-6 "total" 0.5 (RM.total_measure t)

let test_scale_normalizes () =
  let t = RM.create ~servers:(ids 2) in
  (* Targets summing to 2.0 are normalized to 0.5. *)
  RM.scale t ~targets:[ (Id.of_int 0, 1.5); (Id.of_int 1, 0.5) ];
  assert_healthy t;
  check_float 1e-6 "ratio preserved" 0.375 (RM.measure_of t (Id.of_int 0));
  check_float 1e-6 "total" 0.5 (RM.total_measure t)

let test_scale_to_zero () =
  let t = RM.create ~servers:(ids 3) in
  RM.scale t
    ~targets:[ (Id.of_int 0, 0.0); (Id.of_int 1, 1.0); (Id.of_int 2, 1.0) ];
  assert_healthy t;
  check_float 1e-6 "zeroed" 0.0 (RM.measure_of t (Id.of_int 0));
  check_float 1e-6 "others" 0.25 (RM.measure_of t (Id.of_int 1))

(* Deltas within eps are not applied one by one; their sum must still
   land, or half occupancy drifts by the skipped total.  Eight servers
   at 1/16 each, rescaled so that six move up by 0.8e-9 (each below
   eps): dropped, the mapped total would fall 4.8e-9 short of 1/2. *)
let test_scale_carries_sub_eps_deltas () =
  let tiny = 0.8e-9 in
  let base = 1.0 /. 16.0 in
  let rescale ~others =
    let t = RM.create ~servers:(ids 8) in
    let targets =
      List.init 6 (fun i -> (Id.of_int i, base +. tiny))
      @ List.mapi (fun i m -> (Id.of_int (6 + i), m)) others
    in
    RM.scale t ~targets;
    assert_healthy t;
    t
  in
  (* The largest grow takes the carried remainder. *)
  let t = rescale ~others:[ base -. 1e-3; base +. 1e-3 -. (6.0 *. tiny) ] in
  check_float 1e-12 "total stays 1/2 (largest grow carries)" 0.5
    (RM.total_measure t);
  check_float 1e-12 "sub-eps growers unchanged" base
    (RM.measure_of t (Id.of_int 1));
  (* Every grow is sub-eps: their sum goes to the first of them. *)
  let t = rescale ~others:[ base -. (6.0 *. tiny); base ] in
  check_float 1e-12 "total stays 1/2 (all grows sub-eps)" 0.5
    (RM.total_measure t);
  check_float 1e-12 "first grower takes the sum"
    (base +. (6.0 *. tiny))
    (RM.measure_of t (Id.of_int 0))

let test_scale_rejects_mismatched_targets () =
  let t = RM.create ~servers:(ids 3) in
  Alcotest.check_raises "missing server"
    (Invalid_argument "Region_map.scale: targets must cover exactly the servers")
    (fun () ->
      RM.scale t ~targets:[ (Id.of_int 0, 0.5); (Id.of_int 1, 0.5) ])

let test_scale_rejects_all_zero () =
  let t = RM.create ~servers:(ids 2) in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Region_map.scale: all-zero targets") (fun () ->
      RM.scale t ~targets:[ (Id.of_int 0, 0.0); (Id.of_int 1, 0.0) ])

let test_minimal_movement_on_scale () =
  (* Scaling one server down by delta changes ownership over at most
     ~delta + grown measure; untouched servers keep their regions. *)
  let t = RM.create ~servers:(ids 4) in
  let before = List.map (fun id -> (id, RM.region t id)) (ids 4) in
  RM.scale t
    ~targets:
      [ (Id.of_int 0, 0.0625); (Id.of_int 1, 0.15); (Id.of_int 2, 0.125);
        (Id.of_int 3, 0.1625) ];
  assert_healthy t;
  (* Server 2's target equals its current measure: region unchanged. *)
  let r2_before = List.assoc (Id.of_int 2) before in
  check_bool "untouched server keeps region" true
    (Set.equal r2_before (RM.region t (Id.of_int 2)));
  (* The shrunk server keeps a subset of its old region. *)
  let r0_before = List.assoc (Id.of_int 0) before in
  let r0_after = RM.region t (Id.of_int 0) in
  check_float 1e-6 "shrunk is subset" 0.0
    (Set.measure (Set.diff r0_after r0_before))

let test_grow_prefers_own_partial_partition () =
  let t = RM.create ~servers:(ids 2) in
  (* Shrink server 0, then grow it back: it should reclaim space in
     its own partial partition first (region within its old bounds). *)
  let before = RM.region t (Id.of_int 0) in
  RM.scale t ~targets:[ (Id.of_int 0, 0.15); (Id.of_int 1, 0.35) ];
  RM.scale t ~targets:[ (Id.of_int 0, 0.25); (Id.of_int 1, 0.25) ];
  assert_healthy t;
  let after = RM.region t (Id.of_int 0) in
  check_bool "regained original region" true (Set.equal before after)

let test_remove_server_frees_region () =
  let t = RM.create ~servers:(ids 3) in
  RM.remove_server t (Id.of_int 1);
  check_int "two left" 2 (List.length (RM.servers t));
  (* Caller rescales survivors: proportional growth restores 1/2. *)
  RM.scale t ~targets:(RM.measures t);
  assert_healthy t;
  check_float 1e-6 "survivors split" 0.25 (RM.measure_of t (Id.of_int 0))

let test_add_server_no_repartition () =
  let t = RM.create ~servers:(ids 3) in
  (* p(3) = 8 = p(4): adding a fourth server must not repartition. *)
  RM.add_server t (Id.of_int 3) ~target:0.125;
  check_int "partitions unchanged" 8 (RM.partitions t);
  assert_healthy t;
  check_float 1e-6 "newcomer share" 0.125 (RM.measure_of t (Id.of_int 3))

let test_add_server_repartitions () =
  let t = RM.create ~servers:(ids 4) in
  let regions_before = List.map (fun id -> (id, RM.region t id)) (ids 4) in
  (* p(5) = 16 > 8: the unit interval re-partitions, moving no load. *)
  RM.add_server t (Id.of_int 4) ~target:0.1;
  check_int "repartitioned" 16 (RM.partitions t);
  assert_healthy t;
  (* Existing servers shrank proportionally (0.125 -> 0.1 each); what
     remains of each region is a subset of what it had. *)
  List.iter
    (fun (id, before) ->
      let after = RM.region t id in
      check_float 1e-6
        (Format.asprintf "%a subset" Id.pp id)
        0.0
        (Set.measure (Set.diff after before)))
    regions_before;
  check_float 1e-6 "newcomer" 0.1 (RM.measure_of t (Id.of_int 4))

let test_add_duplicate_rejected () =
  let t = RM.create ~servers:(ids 2) in
  Alcotest.check_raises "dup"
    (Invalid_argument "Region_map.add_server: server already present")
    (fun () -> RM.add_server t (Id.of_int 1) ~target:0.1)

let test_failure_recovery_cycle () =
  let t = RM.create ~servers:(ids 5) in
  RM.remove_server t (Id.of_int 2);
  RM.scale t ~targets:(RM.measures t);
  assert_healthy t;
  RM.add_server t (Id.of_int 2) ~target:0.1;
  assert_healthy t;
  check_int "five again" 5 (List.length (RM.servers t));
  check_float 1e-6 "total" 0.5 (RM.total_measure t)

let test_serialization_round_trip () =
  let t = RM.create ~servers:(ids 5) in
  (* Make the geometry non-trivial first. *)
  RM.scale t
    ~targets:
      [ (Id.of_int 0, 0.02); (Id.of_int 1, 0.18); (Id.of_int 2, 0.1);
        (Id.of_int 3, 0.05); (Id.of_int 4, 0.15) ];
  let t' = RM.of_string (RM.to_string t) in
  check_int "partitions" (RM.partitions t) (RM.partitions t');
  assert_healthy t';
  (* Observational equality: same owner for a dense sample of points. *)
  for i = 0 to 999 do
    let x = (float_of_int i +. 0.5) /. 1000.0 in
    check_bool "same locate" true (RM.locate t x = RM.locate t' x)
  done

let test_serialization_rejects_garbage () =
  List.iter
    (fun s ->
      match RM.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "p=0"; "p=8"; "p=8;x:0.0~0.1"; "p=8;0:0.9~0.1"; "nonsense" ]

let test_serialization_rejects_invariant_violations () =
  (* Overlapping regions must not deserialize. *)
  match RM.of_string "p=4;0:0x0p+0~0x1p-2;1:0x1p-3~0x1.8p-2" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "accepted overlapping regions"

(* --- bucket-index locate vs the binary-search oracle --- *)

(* Every interesting abscissa of a map: each segment's lo and hi (and
   one ulp either side), every partition border, and the interval
   edges.  These are exactly the points where the bucket arithmetic
   could disagree with the global binary search. *)
let boundary_points t =
  let nudge x = [ x; Float.pred x; Float.succ x ] in
  let seg_points =
    List.concat_map
      (fun id ->
        List.concat_map
          (fun (s : Hashlib.Unit_interval.seg) -> nudge s.lo @ nudge s.hi)
          (Set.segments (RM.region t id)))
      (RM.servers t)
  in
  let border_points =
    List.concat_map
      (fun j -> nudge (float_of_int j /. float_of_int (RM.partitions t)))
      (List.init (RM.partitions t + 1) Fun.id)
  in
  [ -0.1; 0.0; 1.0; 1.1; Float.pred 1.0 ] @ seg_points @ border_points

let assert_locate_matches_oracle t =
  let locate_reference = Region_map_oracle.locate_reference t in
  List.iter
    (fun x ->
      let fast = RM.locate t x in
      let slow = locate_reference x in
      if fast <> slow then
        Alcotest.failf "locate disagrees with oracle at %h: %s vs %s" x
          (match fast with
          | Some id -> Format.asprintf "%a" Id.pp id
          | None -> "free")
          (match slow with
          | Some id -> Format.asprintf "%a" Id.pp id
          | None -> "free"))
    (boundary_points t)

let test_locate_oracle_on_boundaries () =
  List.iter
    (fun n ->
      let t = RM.create ~servers:(ids n) in
      assert_locate_matches_oracle t;
      (* Uneven geometry: partial partitions in several places. *)
      let targets =
        List.mapi
          (fun i id -> (id, 0.01 +. (float_of_int (i mod 4) *. 0.037)))
          (ids n)
      in
      RM.scale t ~targets;
      assert_locate_matches_oracle t;
      (* Membership churn: remove, rescale, re-add, repartition. *)
      if n > 1 then begin
        RM.remove_server t (Id.of_int 0);
        RM.scale t ~targets:(RM.measures t);
        assert_locate_matches_oracle t;
        RM.add_server t (Id.of_int 0) ~target:(1.0 /. (2.0 *. float_of_int n));
        assert_locate_matches_oracle t
      end)
    [ 1; 2; 3; 5; 8; 16 ]

let test_version_bumps_on_mutation () =
  let t = RM.create ~servers:(ids 3) in
  let v0 = RM.version t in
  ignore (RM.locate t 0.25);
  check_int "reads do not bump" v0 (RM.version t);
  RM.scale t ~targets:[ (Id.of_int 0, 1.0); (Id.of_int 1, 2.0); (Id.of_int 2, 3.0) ];
  check_bool "scale bumps" true (RM.version t > v0);
  let v1 = RM.version t in
  RM.remove_server t (Id.of_int 2);
  check_bool "remove bumps" true (RM.version t > v1);
  let v2 = RM.version t in
  RM.add_server t (Id.of_int 2) ~target:0.1;
  check_bool "add bumps" true (RM.version t > v2)

let prop_locate_matches_oracle_random =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 10 in
      let* targets = list_size (return n) (float_range 0.01 10.0) in
      let* points = list_size (1 -- 50) (float_range (-0.5) 1.5) in
      return (n, targets, points))
  in
  QCheck.Test.make ~count:200
    ~name:"bucket locate equals binary-search oracle"
    (QCheck.make gen)
    (fun (n, targets, points) ->
      let t = RM.create ~servers:(ids n) in
      RM.scale t ~targets:(List.mapi (fun i m -> (Id.of_int i, m)) targets);
      let locate_reference = Region_map_oracle.locate_reference t in
      List.for_all (fun x -> RM.locate t x = locate_reference x) points
      && List.for_all
           (fun x -> RM.locate t x = locate_reference x)
           (boundary_points t))

(* Random scaling sequences keep all invariants. *)
let prop_random_scaling_preserves_invariants =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 8 in
      let* rounds = 1 -- 8 in
      let* targets =
        list_size (return rounds)
          (list_size (return n) (float_range 0.0 10.0))
      in
      return (n, targets))
  in
  QCheck.Test.make ~count:100
    ~name:"random scaling sequences preserve invariants"
    (QCheck.make gen)
    (fun (n, rounds) ->
      let t = RM.create ~servers:(ids n) in
      List.for_all
        (fun raw ->
          let total = List.fold_left ( +. ) 0.0 raw in
          if total <= 0.0 then true
          else begin
            let targets = List.mapi (fun i m -> (Id.of_int i, m)) raw in
            RM.scale t ~targets;
            RM.check_invariants t = []
          end)
        rounds)

let prop_locate_agrees_with_regions =
  QCheck.Test.make ~count:100 ~name:"locate agrees with region membership"
    QCheck.(pair (int_range 1 10) (list (float_bound_exclusive 1.0)))
    (fun (n, points) ->
      let t = RM.create ~servers:(ids n) in
      List.for_all
        (fun x ->
          match RM.locate t x with
          | Some id -> Set.mem (RM.region t id) x
          | None -> not (List.exists (fun id -> Set.mem (RM.region t id) x) (ids n)))
        points)

let suite =
  [
    Alcotest.test_case "partition count" `Quick test_partition_count;
    Alcotest.test_case "create uniform" `Quick test_create_uniform;
    Alcotest.test_case "create single server" `Quick test_create_single_server;
    Alcotest.test_case "create validation" `Quick test_create_rejects_bad_input;
    Alcotest.test_case "locate total" `Quick test_locate_total_on_mapped_points;
    Alcotest.test_case "scale changes measures" `Quick test_scale_changes_measures;
    Alcotest.test_case "scale normalizes" `Quick test_scale_normalizes;
    Alcotest.test_case "scale to zero" `Quick test_scale_to_zero;
    Alcotest.test_case "scale carries sub-eps deltas" `Quick
      test_scale_carries_sub_eps_deltas;
    Alcotest.test_case "scale rejects mismatch" `Quick
      test_scale_rejects_mismatched_targets;
    Alcotest.test_case "scale rejects all-zero" `Quick test_scale_rejects_all_zero;
    Alcotest.test_case "minimal movement" `Quick test_minimal_movement_on_scale;
    Alcotest.test_case "grow reclaims own partition" `Quick
      test_grow_prefers_own_partial_partition;
    Alcotest.test_case "remove server" `Quick test_remove_server_frees_region;
    Alcotest.test_case "add without repartition" `Quick
      test_add_server_no_repartition;
    Alcotest.test_case "add repartitions" `Quick test_add_server_repartitions;
    Alcotest.test_case "add duplicate rejected" `Quick test_add_duplicate_rejected;
    Alcotest.test_case "failure/recovery cycle" `Quick test_failure_recovery_cycle;
    Alcotest.test_case "serialization round trip" `Quick
      test_serialization_round_trip;
    Alcotest.test_case "serialization rejects garbage" `Quick
      test_serialization_rejects_garbage;
    Alcotest.test_case "serialization rejects violations" `Quick
      test_serialization_rejects_invariant_violations;
    Alcotest.test_case "locate oracle on boundaries" `Quick
      test_locate_oracle_on_boundaries;
    Alcotest.test_case "version bumps on mutation" `Quick
      test_version_bumps_on_mutation;
    QCheck_alcotest.to_alcotest prop_random_scaling_preserves_invariants;
    QCheck_alcotest.to_alcotest prop_locate_agrees_with_regions;
    QCheck_alcotest.to_alcotest prop_locate_matches_oracle_random;
  ]
