(* Sharedfs substrates: requests, catalogs, shared disk, lock
   manager, cache. *)

open Sharedfs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

(* --- Request --- *)

let test_request_factors () =
  List.iter
    (fun op ->
      check_bool "factor positive" true (Request.demand_factor op > 0.0))
    Request.all_ops;
  check_bool "rename heavier than stat" true
    (Request.demand_factor Request.Rename > Request.demand_factor Request.Stat)

let test_request_dirtiness () =
  check_bool "stat clean" false (Request.dirties_cache Request.Stat);
  check_bool "create dirty" true (Request.dirties_cache Request.Create);
  check_bool "rename dirty" true (Request.dirties_cache Request.Rename)

let test_request_names_unique () =
  let names = List.map Request.op_name Request.all_ops in
  check_int "distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* --- File_set catalog --- *)

let test_catalog_basics () =
  let c = File_set.Catalog.create [ "a"; "b"; "c" ] in
  check_int "size" 3 (File_set.Catalog.size c);
  let b = File_set.Catalog.get c "b" in
  check_int "dense id" 1 b.File_set.id;
  Alcotest.(check (list string)) "names" [ "a"; "b"; "c" ]
    (File_set.Catalog.names c);
  check_bool "find none" true (File_set.Catalog.find c "zz" = None);
  check_bool "sizes derived" true (b.File_set.file_count >= 100)

let test_catalog_rejects_duplicates () =
  Alcotest.check_raises "dup"
    (Invalid_argument "File_set.Catalog.create: duplicate name a") (fun () ->
      ignore (File_set.Catalog.create [ "a"; "a" ]))

let test_catalog_sizes_deterministic () =
  let c1 = File_set.Catalog.create [ "x" ] in
  let c2 = File_set.Catalog.create [ "x" ] in
  check_int "same derived size"
    (File_set.Catalog.get c1 "x").File_set.file_count
    (File_set.Catalog.get c2 "x").File_set.file_count

(* --- Shared_disk --- *)

let test_disk_round_trip () =
  let d = Shared_disk.create () in
  let t_w = Shared_disk.write d ~block:42 "hello" in
  check_bool "write takes time" true (t_w > 0.0);
  let data, t_r = Shared_disk.read d ~block:42 in
  check_bool "read takes time" true (t_r > 0.0);
  Alcotest.(check (option string)) "data" (Some "hello") data

let test_disk_missing_block () =
  let d = Shared_disk.create () in
  let data, _ = Shared_disk.read d ~block:7 in
  check_bool "none" true (data = None)

let test_disk_transfer_time_model () =
  let d = Shared_disk.create () in
  let cfg = Shared_disk.default_config in
  check_float 1e-12 "zero bytes = overhead" cfg.Shared_disk.op_overhead
    (Shared_disk.transfer_time d ~bytes:0);
  let big = Shared_disk.transfer_time d ~bytes:100_000_000 in
  check_float 0.01 "1 second at 100MB/s"
    (1.0 +. cfg.Shared_disk.op_overhead)
    big;
  Alcotest.check_raises "negative"
    (Invalid_argument "Shared_disk.transfer_time: negative bytes") (fun () ->
      ignore (Shared_disk.transfer_time d ~bytes:(-1)))

(* --- Lock_manager --- *)

let key ino = { Lock_manager.fs = 0; ino }

let test_lock_shared_compatible () =
  let lm = Lock_manager.create () in
  check_bool "grant 1" true
    (Lock_manager.acquire lm ~key:(key 1) ~client:1 ~mode:Lock_manager.Shared
    = `Granted);
  check_bool "grant 2" true
    (Lock_manager.acquire lm ~key:(key 1) ~client:2 ~mode:Lock_manager.Shared
    = `Granted);
  check_int "two holders" 2 (List.length (Lock_manager.holders lm ~key:(key 1)))

let test_lock_exclusive_queues () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:1 ~mode:Lock_manager.Shared);
  check_bool "exclusive queued" true
    (Lock_manager.acquire lm ~key:(key 1) ~client:2 ~mode:Lock_manager.Exclusive
    = `Queued);
  (* A later shared request must queue behind the exclusive (no
     starvation of writers). *)
  check_bool "shared queues behind exclusive" true
    (Lock_manager.acquire lm ~key:(key 1) ~client:3 ~mode:Lock_manager.Shared
    = `Queued);
  let granted = Lock_manager.release lm ~key:(key 1) ~client:1 in
  Alcotest.(check (list int)) "writer granted" [ 2 ] granted;
  let granted = Lock_manager.release lm ~key:(key 1) ~client:2 in
  Alcotest.(check (list int)) "then reader" [ 3 ] granted

let test_lock_release_of_queued_request () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:1 ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:2 ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:3 ~mode:Lock_manager.Exclusive);
  (* Client 2 gives up while queued. *)
  let granted = Lock_manager.release lm ~key:(key 1) ~client:2 in
  check_int "nothing granted yet" 0 (List.length granted);
  let granted = Lock_manager.release lm ~key:(key 1) ~client:1 in
  Alcotest.(check (list int)) "client 3 skips 2" [ 3 ] granted

let test_lock_double_acquire_rejected () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:1 ~mode:Lock_manager.Shared);
  Alcotest.check_raises "double"
    (Invalid_argument "Lock_manager.acquire: client already holds this lock")
    (fun () ->
      ignore
        (Lock_manager.acquire lm ~key:(key 1) ~client:1
           ~mode:Lock_manager.Shared))

let test_lock_export_import () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:1 ~mode:Lock_manager.Shared);
  ignore (Lock_manager.acquire lm ~key:(key 1) ~client:2 ~mode:Lock_manager.Exclusive);
  ignore
    (Lock_manager.acquire lm
       ~key:{ Lock_manager.fs = 1; ino = 1 }
       ~client:3 ~mode:Lock_manager.Shared);
  let state = Lock_manager.export lm ~fs:0 in
  check_int "one key exported" 1 (List.length state);
  check_int "set-b stays" 1 (Lock_manager.active_keys lm);
  (* The acquiring server imports the state wholesale. *)
  let lm2 = Lock_manager.create () in
  Lock_manager.import lm2 state;
  check_int "holder travelled" 1
    (List.length (Lock_manager.holders lm2 ~key:(key 1)));
  check_int "queue travelled" 1
    (List.length (Lock_manager.queued lm2 ~key:(key 1)))

let test_lock_state_cleanup () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~key:(key 9) ~client:1 ~mode:Lock_manager.Exclusive);
  ignore (Lock_manager.release lm ~key:(key 9) ~client:1);
  check_int "empty keys dropped" 0 (Lock_manager.active_keys lm)

(* --- Cache --- *)

let test_cache_cold_penalty_decays () =
  let c = Cache.create () in
  Cache.install_cold c ~fs:0;
  let m0 = Cache.demand_multiplier c ~fs:0 in
  check_float 1e-9 "cold multiplier" 3.0 m0;
  for _ = 1 to 200 do
    Cache.note_request c ~fs:0 ~dirties:false
  done;
  let m1 = Cache.demand_multiplier c ~fs:0 in
  check_bool "warmed" true (m1 < 1.05);
  check_bool "warmth grows" true (Cache.warmth c ~fs:0 > 0.95)

let test_cache_warm_install () =
  let c = Cache.create () in
  Cache.install_warm c ~fs:0;
  check_float 1e-9 "no penalty" 1.0 (Cache.demand_multiplier c ~fs:0)

let test_cache_unknown_set_no_penalty () =
  let c = Cache.create () in
  check_float 1e-9 "unknown" 1.0 (Cache.demand_multiplier c ~fs:99)

let test_cache_dirty_tracking_and_evict () =
  let c = Cache.create () in
  Cache.install_warm c ~fs:0;
  Cache.note_request c ~fs:0 ~dirties:true;
  Cache.note_request c ~fs:0 ~dirties:true;
  Cache.note_request c ~fs:0 ~dirties:false;
  let per_write = (Cache.config c).Cache.dirty_bytes_per_write in
  check_int "dirty bytes" (2 * per_write) (Cache.dirty_bytes c ~fs:0);
  check_int "total" (2 * per_write) (Cache.total_dirty_bytes c);
  let flushed = Cache.evict c ~fs:0 in
  check_int "evict returns dirty" (2 * per_write) flushed;
  check_int "gone" 0 (Cache.dirty_bytes c ~fs:0);
  check_bool "not resident" true (not (List.mem 0 (Cache.resident c)))

let test_cache_validation () =
  Alcotest.check_raises "warm_rate"
    (Invalid_argument "Cache.create: warm_rate must lie in [0, 1]") (fun () ->
      ignore (Cache.create ~config:{ Cache.default_config with warm_rate = 2.0 } ()))

(* --- Delegate --- *)

let test_delegate_election () =
  check_bool "none" true (Delegate.elect ~alive:[] = None);
  let alive = [ Server_id.of_int 3; Server_id.of_int 1; Server_id.of_int 2 ] in
  check_bool "lowest id" true
    (Delegate.elect ~alive = Some (Server_id.of_int 1))

let report id latency requests =
  {
    Delegate.server = Server_id.of_int id;
    speed_hint = 1.0;
    report = { Server.mean_latency = latency; max_latency = latency; requests };
  }

let test_delegate_averages () =
  let reports = [ report 0 10.0 1; report 1 20.0 3; report 2 0.0 0 ] in
  (* Weighted: (10*1 + 20*3 + 0*0) / 4 = 17.5; idle server excluded
     from the median. *)
  check_float 1e-9 "weighted" 17.5 (Delegate.mean_latency reports);
  check_float 1e-9 "median" 15.0 (Delegate.median_latency reports);
  check_float 1e-9 "median empty" 0.0
    (Delegate.median_latency [ report 0 0.0 0 ])

let suite =
  [
    Alcotest.test_case "request factors" `Quick test_request_factors;
    Alcotest.test_case "request dirtiness" `Quick test_request_dirtiness;
    Alcotest.test_case "request names unique" `Quick test_request_names_unique;
    Alcotest.test_case "catalog basics" `Quick test_catalog_basics;
    Alcotest.test_case "catalog duplicates" `Quick test_catalog_rejects_duplicates;
    Alcotest.test_case "catalog deterministic sizes" `Quick
      test_catalog_sizes_deterministic;
    Alcotest.test_case "disk round trip" `Quick test_disk_round_trip;
    Alcotest.test_case "disk missing block" `Quick test_disk_missing_block;
    Alcotest.test_case "disk transfer model" `Quick test_disk_transfer_time_model;
    Alcotest.test_case "lock shared compatible" `Quick test_lock_shared_compatible;
    Alcotest.test_case "lock exclusive queues" `Quick test_lock_exclusive_queues;
    Alcotest.test_case "lock cancel queued" `Quick test_lock_release_of_queued_request;
    Alcotest.test_case "lock double acquire" `Quick test_lock_double_acquire_rejected;
    Alcotest.test_case "lock export/import" `Quick test_lock_export_import;
    Alcotest.test_case "lock cleanup" `Quick test_lock_state_cleanup;
    Alcotest.test_case "cache cold decay" `Quick test_cache_cold_penalty_decays;
    Alcotest.test_case "cache warm install" `Quick test_cache_warm_install;
    Alcotest.test_case "cache unknown set" `Quick test_cache_unknown_set_no_penalty;
    Alcotest.test_case "cache dirty/evict" `Quick test_cache_dirty_tracking_and_evict;
    Alcotest.test_case "cache validation" `Quick test_cache_validation;
    Alcotest.test_case "delegate election" `Quick test_delegate_election;
    Alcotest.test_case "delegate averages" `Quick test_delegate_averages;
  ]
