type record = { time : float; request : Sharedfs.Request.t; demand : float }

type t = { records : record array; duration : float }

(* Written so that NaN fails every check: each comparison is false for
   it. *)
let valid_duration d = d > 0.0 && Float.is_finite d

let valid_demand d = d > 0.0 && Float.is_finite d

let create ~duration records =
  if not (valid_duration duration) then
    invalid_arg "Trace.create: duration must be positive and finite";
  List.iter
    (fun r ->
      if not (r.time >= 0.0 && r.time <= duration) then
        invalid_arg
          (Printf.sprintf "Trace.create: record at %g outside [0, %g]" r.time
             duration);
      if not (valid_demand r.demand) then
        invalid_arg "Trace.create: non-positive demand")
    records;
  let arr = Array.of_list records in
  Array.sort (fun a b -> Float.compare a.time b.time) arr;
  { records = arr; duration }

let of_sorted_records ~duration records =
  if not (valid_duration duration) then
    invalid_arg "Trace.of_sorted_records: duration must be positive and finite";
  let arr = Array.of_list records in
  Array.iteri
    (fun i r ->
      if not (r.time >= 0.0 && r.time <= duration) then
        invalid_arg
          (Printf.sprintf "Trace.of_sorted_records: record at %g outside [0, %g]"
             r.time duration);
      if not (valid_demand r.demand) then
        invalid_arg "Trace.of_sorted_records: non-positive demand";
      if i > 0 && arr.(i - 1).time > r.time then
        invalid_arg "Trace.of_sorted_records: records not time-sorted")
    arr;
  { records = arr; duration }

let records t = t.records

let duration t = t.duration

let length t = Array.length t.records

let file_sets t =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  Array.iter
    (fun r ->
      let name = r.request.Sharedfs.Request.file_set in
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        order := name :: !order
      end)
    t.records;
  List.rev !order

let effective_demand r =
  r.demand *. Sharedfs.Request.demand_factor r.request.Sharedfs.Request.op

(* First index with time >= x (lower bound). *)
let lower_bound t x =
  let arr = t.records in
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if arr.(mid).time < x then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length arr)

let window_demand t ~lo ~hi =
  let tbl = Hashtbl.create 64 in
  let i0 = lower_bound t lo in
  let n = Array.length t.records in
  let i = ref i0 in
  while !i < n && t.records.(!i).time < hi do
    let r = t.records.(!i) in
    let name = r.request.Sharedfs.Request.file_set in
    let acc = Option.value ~default:0.0 (Hashtbl.find_opt tbl name) in
    Hashtbl.replace tbl name (acc +. effective_demand r);
    incr i
  done;
  Hashtbl.fold (fun name d acc -> (name, d) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counts_by_file_set t =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun r ->
      let name = r.request.Sharedfs.Request.file_set in
      let c = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (c + 1))
    t.records;
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let activity_skew t =
  match counts_by_file_set t with
  | [] | [ _ ] -> 1.0
  | counts ->
    let values = List.map (fun (_, c) -> float_of_int c) counts in
    let mn = List.fold_left Float.min infinity values in
    let mx = List.fold_left Float.max neg_infinity values in
    if mn <= 0.0 then infinity else mx /. mn

let total_demand t =
  Array.fold_left (fun acc r -> acc +. effective_demand r) 0.0 t.records

let op_mix =
  Sharedfs.Request.
    [
      (Stat, 0.38);
      (Open_file, 0.20);
      (Close_file, 0.15);
      (Readdir, 0.08);
      (Create, 0.05);
      (Remove, 0.04);
      (Set_attr, 0.04);
      (Rename, 0.02);
      (Lock_acquire, 0.02);
      (Lock_release, 0.02);
    ]

(* Cumulative thresholds precomputed once (same left-to-right [+.]
   accumulation as the original list walk, so the cut points are
   bit-identical); the draw itself is then one uniform and an
   allocation-free scan over two flat arrays. *)
let op_mix_ops = Array.of_list (List.map fst op_mix)

let op_mix_cum =
  let a = Array.make (Array.length op_mix_ops) 0.0 in
  let acc = ref 0.0 in
  List.iteri
    (fun i (_, p) ->
      acc := !acc +. p;
      a.(i) <- !acc)
    op_mix;
  a

let sample_op rng =
  (* [Rng.float], drawn through the unboxed core so that no float is
     allocated per generated request. *)
  let u = float_of_int (Desim.Rng.bits53 rng) *. Desim.Rng.unit_of_bits53 in
  let n = Array.length op_mix_cum in
  let i = ref 0 in
  while !i < n && u >= op_mix_cum.(!i) do
    incr i
  done;
  if !i >= n then Sharedfs.Request.Stat else op_mix_ops.(!i)

let merge a b =
  let duration = Float.max a.duration b.duration in
  let records = Array.to_list a.records @ Array.to_list b.records in
  create ~duration records
