(* Timeseries: bucketing, gap materialization, error cases. *)

open Desim

let check_int = Alcotest.(check int)
let check_float eps = Alcotest.(check (float eps))

(* An observation at [time], through a clock cell holding it. *)
let observe ts ~time x = Timeseries.observe ts ~clock:[| time |] x

let test_basic_bucketing () =
  let ts = Timeseries.create ~interval:10.0 in
  observe ts ~time:1.0 4.0;
  observe ts ~time:2.0 6.0;
  observe ts ~time:15.0 10.0;
  let points = Timeseries.finish ts ~until:19.9 in
  check_int "buckets" 2 (List.length points);
  (match points with
  | [ p0; p1 ] ->
    check_float 1e-9 "b0 start" 0.0 p0.Timeseries.bucket_start;
    check_float 1e-9 "b0 mean" 5.0 p0.Timeseries.mean;
    check_int "b0 count" 2 p0.Timeseries.count;
    check_float 1e-9 "b0 max" 6.0 p0.Timeseries.max;
    check_float 1e-9 "b1 start" 10.0 p1.Timeseries.bucket_start;
    check_float 1e-9 "b1 mean" 10.0 p1.Timeseries.mean;
    check_int "b1 count" 1 p1.Timeseries.count
  | _ -> Alcotest.fail "expected two points")

let test_empty_gap_buckets () =
  let ts = Timeseries.create ~interval:1.0 in
  observe ts ~time:0.5 1.0;
  observe ts ~time:3.5 2.0;
  let points = Timeseries.finish ts ~until:3.9 in
  check_int "four buckets" 4 (List.length points);
  let counts = List.map (fun p -> p.Timeseries.count) points in
  Alcotest.(check (list int)) "gaps zero" [ 1; 0; 0; 1 ] counts;
  let means = List.map (fun p -> p.Timeseries.mean) points in
  Alcotest.(check (list (float 1e-9))) "gap means zero" [ 1.0; 0.0; 0.0; 2.0 ] means

let test_no_observations () =
  let ts = Timeseries.create ~interval:5.0 in
  let points = Timeseries.finish ts ~until:12.0 in
  check_int "three empty buckets" 3 (List.length points)

let test_observation_before_current_bucket_rejected () =
  let ts = Timeseries.create ~interval:1.0 in
  observe ts ~time:5.5 1.0;
  Alcotest.check_raises "stale"
    (Invalid_argument "Timeseries.observe: observation before current bucket")
    (fun () -> observe ts ~time:4.0 1.0)

let test_same_bucket_out_of_order_ok () =
  let ts = Timeseries.create ~interval:10.0 in
  observe ts ~time:7.0 1.0;
  observe ts ~time:3.0 3.0;
  let points = Timeseries.finish ts ~until:9.0 in
  match points with
  | [ p ] -> check_float 1e-9 "mean" 2.0 p.Timeseries.mean
  | _ -> Alcotest.fail "one bucket expected"

(* An observation exactly on a bucket boundary belongs to the bucket
   it starts (floor semantics), and a [finish] landing exactly on a
   boundary still materializes the bucket that starts there. *)
let test_boundary_observation () =
  let ts = Timeseries.create ~interval:10.0 in
  observe ts ~time:10.0 3.0;
  let points = Timeseries.finish ts ~until:20.0 in
  check_int "three buckets up to the boundary" 3 (List.length points);
  match points with
  | [ p0; p1; p2 ] ->
    check_int "bucket before the boundary is empty" 0 p0.Timeseries.count;
    check_float 1e-9 "boundary observation opens its bucket" 10.0
      p1.Timeseries.bucket_start;
    check_int "boundary observation counted there" 1 p1.Timeseries.count;
    check_float 1e-9 "finish on a boundary materializes that bucket" 20.0
      p2.Timeseries.bucket_start;
    check_int "and it is empty" 0 p2.Timeseries.count
  | _ -> Alcotest.fail "expected three points"

(* A long sparse gap materializes every intermediate bucket as an
   explicit zero — consumers can difference neighbouring buckets
   without re-deriving the time axis. *)
let test_sparse_long_gap () =
  let ts = Timeseries.create ~interval:1.0 in
  observe ts ~time:0.5 1.0;
  observe ts ~time:100.5 2.0;
  let points = Timeseries.finish ts ~until:100.5 in
  check_int "101 buckets" 101 (List.length points);
  let nonzero =
    List.filter_map
      (fun p ->
        if p.Timeseries.count > 0 then Some p.Timeseries.bucket_start
        else None)
      points
  in
  Alcotest.(check (list (float 1e-9))) "only the endpoints carry data"
    [ 0.0; 100.0 ] nonzero

(* Once a later bucket opens, anything before it is rejected — even an
   observation sitting exactly on a closed bucket's boundary. *)
let test_boundary_out_of_order_rejected () =
  let ts = Timeseries.create ~interval:10.0 in
  observe ts ~time:10.0 1.0;
  Alcotest.check_raises "closed boundary stale"
    (Invalid_argument "Timeseries.observe: observation before current bucket")
    (fun () -> observe ts ~time:9.999 1.0)

let test_invalid_interval () =
  Alcotest.check_raises "zero"
    (Invalid_argument "Timeseries.create: interval must be positive") (fun () ->
      ignore (Timeseries.create ~interval:0.0))

let test_bucket_starts_are_multiples () =
  let ts = Timeseries.create ~interval:2.5 in
  observe ts ~time:6.0 1.0;
  let points = Timeseries.finish ts ~until:6.0 in
  let starts = List.map (fun p -> p.Timeseries.bucket_start) points in
  Alcotest.(check (list (float 1e-9))) "starts" [ 0.0; 2.5; 5.0 ] starts

let suite =
  [
    Alcotest.test_case "basic bucketing" `Quick test_basic_bucketing;
    Alcotest.test_case "gap buckets" `Quick test_empty_gap_buckets;
    Alcotest.test_case "no observations" `Quick test_no_observations;
    Alcotest.test_case "stale observation rejected" `Quick
      test_observation_before_current_bucket_rejected;
    Alcotest.test_case "same bucket out of order" `Quick
      test_same_bucket_out_of_order_ok;
    Alcotest.test_case "boundary observation" `Quick test_boundary_observation;
    Alcotest.test_case "sparse long gap" `Quick test_sparse_long_gap;
    Alcotest.test_case "boundary out of order rejected" `Quick
      test_boundary_out_of_order_rejected;
    Alcotest.test_case "invalid interval" `Quick test_invalid_interval;
    Alcotest.test_case "bucket starts" `Quick test_bucket_starts_are_multiples;
  ]
