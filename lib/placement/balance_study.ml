module Id = Sharedfs.Server_id

type mechanism = Simple | Anu_static | Anu_tuned

let mechanism_name = function
  | Simple -> "simple-randomization"
  | Anu_static -> "anu-untuned"
  | Anu_tuned -> "anu-tuned"

type result = {
  mechanism : mechanism;
  servers : int;
  file_sets : int;
  trials : int;
  mean_ratio : float;
  worst_ratio : float;
  p95_ratio : float;
}

let counts_of_locate ~servers ~file_sets locate =
  let counts = Array.make servers 0 in
  for i = 0 to file_sets - 1 do
    let id = Id.to_int (locate (Printf.sprintf "ball-%06d" i)) in
    counts.(id) <- counts.(id) + 1
  done;
  counts

let ratio counts =
  let n = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  let mean = float_of_int total /. float_of_int n in
  let mx = Array.fold_left max 0 counts in
  if mean <= 0.0 then 1.0 else float_of_int mx /. mean

(* One tuning round: report each server's file-set count as its
   "latency" (homogeneous servers, uniform sets: load is count) and
   let ANU rescale.  No heuristics and mean averaging so every round
   acts — this isolates the variance-absorbing power of scaling. *)
let feedback_of_counts counts =
  let reports =
    Array.to_list
      (Array.mapi
         (fun i c ->
           {
             Sharedfs.Delegate.server = Id.of_int i;
             speed_hint = 1.0;
             report =
               {
                 Sharedfs.Server.mean_latency = float_of_int c;
                 max_latency = float_of_int c;
                 requests = max 1 c;
               };
           })
         counts)
  in
  { Policy.time = 0.0; reports; future_demand = lazy [] }

let study ~servers ~file_sets ~trials ~tuning_rounds ~seed mechanism =
  if servers <= 0 || file_sets <= 0 || trials <= 0 then
    invalid_arg "Balance_study.study: positive sizes required";
  let ratios = Desim.Stat.Sample.create () in
  for trial = 0 to trials - 1 do
    let family = Hashlib.Hash_family.create ~seed:(seed + (trial * 7919)) in
    let ids = List.init servers Id.of_int in
    let counts =
      match mechanism with
      | Simple ->
        let sr = Simple_random.create ~family ~servers:ids in
        counts_of_locate ~servers ~file_sets (Simple_random.locate sr)
      | Anu_static ->
        let anu = Anu.create ~family ~servers:ids () in
        counts_of_locate ~servers ~file_sets (Anu.locate anu)
      | Anu_tuned ->
        let config =
          {
            Anu.default_config with
            Anu.heuristics = Heuristics.none;
            averaging = Average.Weighted_mean;
          }
        in
        let anu = Anu.create ~config ~family ~servers:ids () in
        let counts = ref (counts_of_locate ~servers ~file_sets (Anu.locate anu)) in
        for _ = 1 to tuning_rounds do
          Anu.rebalance anu (feedback_of_counts !counts);
          counts := counts_of_locate ~servers ~file_sets (Anu.locate anu)
        done;
        !counts
    in
    Desim.Stat.Sample.add ratios (ratio counts)
  done;
  {
    mechanism;
    servers;
    file_sets;
    trials;
    mean_ratio = Desim.Stat.Sample.mean ratios;
    worst_ratio = Desim.Stat.Sample.max_value ratios;
    p95_ratio = Desim.Stat.Sample.percentile ratios 95.0;
  }

let compare_all ~servers ~file_sets ~trials ~seed =
  List.map
    (study ~servers ~file_sets ~trials ~tuning_rounds:8 ~seed)
    [ Simple; Anu_static; Anu_tuned ]
