(* SAN data path and the Section 2 motivation experiment. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

(* [(transfers_completed, bytes_completed)] of [san] read at each of
   [times], in order. *)
let counts_at sim san times =
  let seen = ref [] in
  List.iter
    (fun time ->
      let (_ : Desim.Sim.handle) =
        Desim.Sim.schedule_at sim ~time (fun () ->
            seen :=
              ( Sharedfs.San.transfers_completed san,
                Sharedfs.San.bytes_completed san )
              :: !seen)
      in
      ())
    times;
  fun () -> List.rev !seen

let test_transfer_timing () =
  let sim = Desim.Sim.create () in
  let san = Sharedfs.San.create sim ~bandwidth:1e6 in
  Sharedfs.San.transfer san ~bytes:500_000;
  let seen = counts_at sim san [ 0.499; 0.501 ] in
  Desim.Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "half a second at 1 MB/s" [ (0, 0); (1, 500_000) ] (seen ());
  check_int "completed" 1 (Sharedfs.San.transfers_completed san);
  check_int "bytes" 500_000 (Sharedfs.San.bytes_completed san)

let test_transfers_share_the_pipe () =
  let sim = Desim.Sim.create () in
  let san = Sharedfs.San.create sim ~bandwidth:1e6 in
  for _ = 1 to 3 do
    Sharedfs.San.transfer san ~bytes:1_000_000
  done;
  let seen = counts_at sim san [ 0.999; 1.001; 1.999; 2.001; 2.999; 3.001 ] in
  Desim.Sim.run sim;
  (* FIFO through the shared pipe: done at 1 s, 2 s, 3 s. *)
  Alcotest.(check (list int))
    "serialized" [ 0; 1; 1; 2; 2; 3 ]
    (List.map fst (seen ()))

let test_utilization () =
  let sim = Desim.Sim.create () in
  let san = Sharedfs.San.create sim ~bandwidth:1e6 in
  Sharedfs.San.transfer san ~bytes:2_000_000;
  Desim.Sim.run sim;
  check_float 1e-9 "busy 2s of 10" 0.2 (Sharedfs.San.utilization san ~until:10.0)

let test_validation () =
  let sim = Desim.Sim.create () in
  Alcotest.check_raises "bandwidth"
    (Invalid_argument "San.create: bandwidth must be positive") (fun () ->
      ignore (Sharedfs.San.create sim ~bandwidth:0.0));
  let san = Sharedfs.San.create sim ~bandwidth:1.0 in
  Alcotest.check_raises "bytes"
    (Invalid_argument "San.transfer: bytes must be positive") (fun () ->
      Sharedfs.San.transfer san ~bytes:0)

let test_motivation_experiment () =
  (* The Section 2 claim, in miniature: identical data work, but the
     imbalanced cluster defers more of it past the trace window and
     suffers far higher open latencies. *)
  match Experiments.Motivation.experiment ~quick:true () with
  | [ static; anu ] ->
    Alcotest.(check string) "static first" "round-robin"
      static.Experiments.Motivation.policy_name;
    check_bool "same total data" true
      (static.Experiments.Motivation.data_bytes_total
      = anu.Experiments.Motivation.data_bytes_total);
    check_bool "anu opens faster" true
      (anu.Experiments.Motivation.mean_open_latency
      < static.Experiments.Motivation.mean_open_latency);
    check_bool "anu lands at least as much data in the window" true
      (anu.Experiments.Motivation.data_bytes_in_window
      >= static.Experiments.Motivation.data_bytes_in_window)
  | _ -> Alcotest.fail "expected two results"

let suite =
  [
    Alcotest.test_case "transfer timing" `Quick test_transfer_timing;
    Alcotest.test_case "pipe serializes" `Quick test_transfers_share_the_pipe;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "motivation experiment" `Slow test_motivation_experiment;
  ]
