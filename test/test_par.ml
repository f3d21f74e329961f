(* Par.Pool: ordering, serial fast path, exception propagation, and
   the parallel == serial determinism contract on a real figure. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_run_serial_fast_path () =
  (* jobs <= 1 runs in the calling domain, in order. *)
  let order = ref [] in
  let results =
    Par.Pool.run ~jobs:1
      (List.init 5 (fun i () ->
           order := i :: !order;
           i * i))
  in
  Alcotest.(check (list int)) "results" [ 0; 1; 4; 9; 16 ] results;
  Alcotest.(check (list int)) "execution order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let test_run_parallel_preserves_order () =
  (* Results come back in thunk order regardless of completion order;
     later thunks finish first here because they spin less. *)
  let spin n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + i
    done;
    !acc
  in
  let results =
    Par.Pool.run ~jobs:4
      (List.init 8 (fun i () ->
           ignore (spin ((8 - i) * 100_000));
           i))
  in
  Alcotest.(check (list int)) "input order" [ 0; 1; 2; 3; 4; 5; 6; 7 ] results

let test_run_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Par.Pool.run ~jobs:4 []);
  Alcotest.(check (list string)) "singleton" [ "x" ]
    (Par.Pool.run ~jobs:4 [ (fun () -> "x") ])

exception Boom of int

let test_run_propagates_exception () =
  match Par.Pool.run ~jobs:2 [ (fun () -> 1); (fun () -> raise (Boom 7)) ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 7 -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_run_earliest_exception_wins () =
  (* Both thunks fail; the earliest thunk's exception is reported and
     every future is still awaited first (no dangling work). *)
  match
    Par.Pool.run ~jobs:2
      [ (fun () -> raise (Boom 1)); (fun () -> raise (Boom 2)) ]
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> check_int "earliest thunk" 1 n

(* The acceptance contract of the fan-out: a figure regenerated with
   jobs > 1 is indistinguishable from the serial run.  Wall-clock
   fields are the only nondeterministic outputs, so compare everything
   else. *)
let comparable (r : Experiments.Runner.result) =
  ( ( r.label,
      r.policy_name,
      r.duration,
      r.per_server_mean,
      r.per_server_requests,
      r.utilizations ),
    ( r.overall_mean,
      r.overall_p95,
      r.overall_max,
      r.submitted,
      r.completed,
      r.reconfig_rounds,
      r.sim_events,
      List.length r.moves ) )

let test_parallel_figure_matches_serial () =
  let build = Option.get (Experiments.Figures.by_id "fig6") in
  let serial = build ~quick:true ~jobs:1 () in
  let parallel = build ~quick:true ~jobs:3 () in
  let a = List.map comparable serial.Experiments.Figures.results in
  let b = List.map comparable parallel.Experiments.Figures.results in
  check_int "same run count" (List.length a) (List.length b);
  check_bool "identical results" true (a = b)

(* Same contract with the full observability pipeline attached: span
   tracing and telemetry must not perturb the simulations under
   fan-out (each run gets an isolated registry and span counter; only
   sink interleaving may differ, and that is not part of the
   results). *)
let test_parallel_traced_matches_serial () =
  let build = Option.get (Experiments.Figures.by_id "fig6") in
  let run jobs =
    let ring = Obs.Sink.Ring.create ~capacity:500_000 in
    let obs =
      Obs.Ctx.create
        ~sinks:[ Obs.Sink.Ring.sink ring ]
        ~telemetry:(Obs.Telemetry.create ()) ()
    in
    build ~quick:true ~jobs ~obs ()
  in
  let serial = run 1 in
  let parallel = run 3 in
  let a = List.map comparable serial.Experiments.Figures.results in
  let b = List.map comparable parallel.Experiments.Figures.results in
  check_int "same run count" (List.length a) (List.length b);
  check_bool "identical results under tracing" true (a = b);
  List.iter2
    (fun (r1 : Experiments.Runner.result) (r2 : Experiments.Runner.result) ->
      check_bool "telemetry snapshot present" true (r1.telemetry <> None);
      check_bool "identical telemetry snapshots" true
        (r1.telemetry = r2.telemetry))
    serial.Experiments.Figures.results parallel.Experiments.Figures.results

let suite =
  [
    Alcotest.test_case "serial fast path" `Quick test_run_serial_fast_path;
    Alcotest.test_case "parallel preserves order" `Quick
      test_run_parallel_preserves_order;
    Alcotest.test_case "empty and singleton" `Quick test_run_empty_and_singleton;
    Alcotest.test_case "exception propagation" `Quick
      test_run_propagates_exception;
    Alcotest.test_case "earliest exception wins" `Quick
      test_run_earliest_exception_wins;
    Alcotest.test_case "parallel figure == serial" `Slow
      test_parallel_figure_matches_serial;
    Alcotest.test_case "parallel figure == serial under tracing" `Slow
      test_parallel_traced_matches_serial;
  ]
