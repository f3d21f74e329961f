(* The pre-bucket-index point location, kept as the oracle the
   library's bucketed [Region_map.locate] is pinned against: every
   segment of every region, from the public [servers] and [region],
   sorted by lower bound, then a global binary search for the last
   segment with [lo <= x].  It reads none of the buckets, so oracle
   queries cannot mask a bucket-patching bug. *)

module RM = Placement.Region_map
module UI = Hashlib.Unit_interval

let sorted_segments t =
  let segs =
    List.concat_map
      (fun id ->
        List.map
          (fun s -> (s.UI.lo, s.UI.hi, id))
          (UI.Set.segments (RM.region t id)))
      (RM.servers t)
  in
  let arr = Array.of_list segs in
  Array.sort (fun (a, _, _) (b, _, _) -> Float.compare a b) arr;
  arr

(* [locate_reference t] sorts once; apply it to many points to share
   the sort. *)
let locate_reference t =
  let arr = sorted_segments t in
  let n = Array.length arr in
  fun x ->
    let rec go lo hi best =
      if lo > hi then best
      else begin
        let mid = (lo + hi) / 2 in
        let seg_lo, _, _ = arr.(mid) in
        if seg_lo <= x then go (mid + 1) hi (Some mid)
        else go lo (mid - 1) best
      end
    in
    match go 0 (n - 1) None with
    | None -> None
    | Some i ->
      let _, seg_hi, id = arr.(i) in
      if x < seg_hi then Some id else None
