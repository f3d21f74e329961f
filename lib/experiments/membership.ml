module Id = Sharedfs.Server_id

type mechanism = Simple_random | Consistent_hash | Anu

type result = {
  mechanism : mechanism;
  file_sets : int;
  servers : int;
  owned_by_failed : int;
  collateral_on_failure : int;
  moved_on_recovery : int;
}

let names file_sets = List.init file_sets (Printf.sprintf "member-fs-%05d")

let assignment locate names = List.map (fun n -> (n, locate n)) names

let diff_count before after =
  List.length (Placement.Policy.diff_assignments ~before ~after)

let study ~servers ~file_sets ~failed ~seed mechanism =
  if failed < 0 || failed >= servers then
    invalid_arg "Membership.study: failed server out of range";
  let family = Hashlib.Hash_family.create ~seed in
  let ids = List.init servers Id.of_int in
  let failed_id = Id.of_int failed in
  let names = names file_sets in
  let locate, fail, recover =
    match mechanism with
    | Simple_random ->
      let t = Placement.Simple_random.create ~family ~servers:ids in
      let p = Placement.Simple_random.policy t in
      ( (fun n -> Placement.Simple_random.locate t n),
        (fun () -> p.Placement.Policy.server_failed failed_id),
        fun () -> p.Placement.Policy.server_added failed_id )
    | Consistent_hash ->
      let t = Placement.Consistent_hash.create ~family ~servers:ids () in
      ( (fun n -> Placement.Consistent_hash.locate t n),
        (fun () -> Placement.Consistent_hash.remove_server t failed_id),
        fun () -> Placement.Consistent_hash.add_server t failed_id )
    | Anu ->
      let t = Placement.Anu.create ~family ~servers:ids () in
      ( (fun n -> Placement.Anu.locate t n),
        (fun () -> Placement.Anu.server_failed t failed_id),
        fun () -> Placement.Anu.server_added t failed_id )
  in
  let initial = assignment locate names in
  let owned_by_failed =
    List.length (List.filter (fun (_, id) -> Id.equal id failed_id) initial)
  in
  fail ();
  let after_failure = assignment locate names in
  let moved =
    Placement.Policy.diff_assignments ~before:initial ~after:after_failure
  in
  let collateral_on_failure =
    List.length
      (List.filter (fun (_, src, _) -> not (Id.equal src failed_id)) moved)
  in
  recover ();
  let after_recovery = assignment locate names in
  {
    mechanism;
    file_sets;
    servers;
    owned_by_failed;
    collateral_on_failure;
    moved_on_recovery = diff_count after_failure after_recovery;
  }

let compare_all ~servers ~file_sets ~failed ~seed =
  List.map
    (study ~servers ~file_sets ~failed ~seed)
    [ Simple_random; Consistent_hash; Anu ]
