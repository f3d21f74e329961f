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
   tracing and telemetry must not perturb the simulations (each run
   gets an isolated registry and span counter).  Traced runs share the
   sinks, so they run one after another whatever [jobs] says, and the
   traces are identical too. *)
let test_parallel_traced_matches_serial () =
  let build = Option.get (Experiments.Figures.by_id "fig6") in
  let run jobs =
    let ring = Obs.Sink.Ring.create ~capacity:500_000 in
    let obs =
      Obs.Ctx.create
        ~sinks:[ Obs.Sink.Ring.sink ring ]
        ~telemetry:(Obs.Telemetry.create ()) ()
    in
    (build ~quick:true ~jobs ~obs (), Obs.Sink.Ring.contents ring)
  in
  let serial, serial_trace = run 1 in
  let parallel, parallel_trace = run 3 in
  check_bool "identical traces" true (serial_trace = parallel_trace);
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

(* --- Par.Helper --- *)

(* A poller that finishes once told to, and counts the calls it gets
   after it finished. *)
type probe = {
  stop : bool Atomic.t;
  calls : int Atomic.t;
  late : int Atomic.t;
  mutable reg : Par.Helper.t option;
}

let probe () =
  let p =
    {
      stop = Atomic.make false;
      calls = Atomic.make 0;
      late = Atomic.make 0;
      reg = None;
    }
  in
  let finished = Atomic.make false in
  let poll () =
    if Atomic.get finished then begin
      Atomic.incr p.late;
      Par.Helper.Idle
    end
    else begin
      Atomic.incr p.calls;
      if Atomic.get p.stop then begin
        Atomic.set finished true;
        Par.Helper.Finished
      end
      else Par.Helper.Idle
    end
  in
  p.reg <- Par.Helper.attach poll;
  p

(* Pollers attached and finished in random interleavings: the helper
   runs exactly while one is attached, a finished poller is never
   called again, and once none remains no helper is left running. *)
let test_helper_lifecycle () =
  Helper_wait.quiesce ();
  if not (Par.Helper.available ()) then begin
    check_bool "no helper without a spare core" true
      ((probe ()).reg = None);
    check_bool "nothing runs" false (Par.Helper.running ())
  end
  else
    for seed = 1 to 20 do
      let st = Random.State.make [| seed |] in
      let to_attach = ref (1 + Random.State.int st 6) in
      let live = ref [] and all = ref [] in
      while !to_attach > 0 || !live <> [] do
        if !live = [] || (!to_attach > 0 && Random.State.bool st) then begin
          let p = probe () in
          check_bool "attached" true (p.reg <> None);
          live := p :: !live;
          all := p :: !all;
          decr to_attach
        end
        else begin
          let i = Random.State.int st (List.length !live) in
          let p = List.nth !live i in
          live := List.filter (fun q -> q != p) !live;
          Atomic.set p.stop true;
          let reg = Option.get p.reg in
          check_bool "dropped after finishing" true
            (Helper_wait.eventually (fun () ->
                 not (Par.Helper.attached reg)));
          check_bool
            (Printf.sprintf "seed %d: running while pollers remain" seed)
            (!live <> []) (Par.Helper.running ())
        end
      done;
      List.iter
        (fun p ->
          check_bool "called" true (Atomic.get p.calls > 0);
          check_int "never called after finishing" 0 (Atomic.get p.late))
        !all
    done;
  check_bool "a domain still spawns" true
    (Domain.join (Domain.spawn (fun () -> true)))

(* The helper's loop allocates nothing per pass: a poller that reads the
   helper domain's own allocation counter 10,000 passes apart finds it
   unchanged. *)
let test_helper_passes_allocate_nothing () =
  Helper_wait.quiesce ();
  let words = Float.Array.make 2 0.0 in
  let calls = ref 0 in
  let poll () =
    incr calls;
    if !calls = 100 then Float.Array.set words 0 (Gc.minor_words ())
    else if !calls = 10_100 then Float.Array.set words 1 (Gc.minor_words ());
    if !calls >= 10_100 then Par.Helper.Finished else Par.Helper.Idle
  in
  match Par.Helper.attach poll with
  | None ->
    check_bool "no helper without a spare core" false
      (Par.Helper.available ())
  | Some p ->
    check_bool "ran 10,100 passes" true
      (Helper_wait.eventually (fun () -> not (Par.Helper.attached p)));
    Alcotest.(check (float 0.0))
      "words allocated" 0.0
      (Float.Array.get words 1 -. Float.Array.get words 0)

(* The helper domain lives for the process: two pollers attached in
   turn, with no poller attached in between, run on the same domain. *)
let test_helper_one_domain () =
  Helper_wait.quiesce ();
  match Helper_wait.helper_domain () with
  | None ->
    check_bool "no helper without a spare core" false
      (Par.Helper.available ())
  | Some first ->
    check_bool "not the main domain" true
      (first <> (Domain.self () :> int));
    check_bool "nothing runs between the pollers" false
      (Par.Helper.running ());
    check_bool "the second poller runs on the same domain" true
      (Helper_wait.helper_domain () = Some first)

(* A poller that breaks the "must not raise" contract is dropped as if
   it had finished, and the helper goes on serving: a poller attached
   after it is still called and finishes. *)
let test_helper_survives_raising_poller () =
  Helper_wait.quiesce ();
  let calls = ref 0 in
  let poll () =
    incr calls;
    if !calls = 3 then failwith "a poller that raises" else Par.Helper.Idle
  in
  match Par.Helper.attach poll with
  | None ->
    check_bool "no helper without a spare core" false
      (Par.Helper.available ())
  | Some p ->
    check_bool "the raising poller is dropped" true
      (Helper_wait.eventually (fun () -> not (Par.Helper.attached p)));
    check_int "never called after raising" 3 !calls;
    check_bool "nothing runs after it" false (Par.Helper.running ());
    let q = probe () in
    check_bool "a later poller attaches" true (q.reg <> None);
    check_bool "and is called" true
      (Helper_wait.eventually (fun () -> Atomic.get q.calls > 0));
    Atomic.set q.stop true;
    check_bool "and finishes" true
      (Helper_wait.eventually (fun () ->
           not (Par.Helper.attached (Option.get q.reg))));
    check_bool "nothing runs at the end" false (Par.Helper.running ())

let test_helper_gated_off_main () =
  let available, attached =
    Domain.join
      (Domain.spawn (fun () ->
           ( Par.Helper.available (),
             Par.Helper.attach (fun () -> Par.Helper.Finished) )))
  in
  check_bool "not available off the main domain" false available;
  check_bool "attach refused off the main domain" true (attached = None)

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
    Alcotest.test_case "helper runs exactly while pollers remain" `Quick
      test_helper_lifecycle;
    Alcotest.test_case "helper refused off the main domain" `Quick
      test_helper_gated_off_main;
    Alcotest.test_case "helper passes allocate nothing" `Quick
      test_helper_passes_allocate_nothing;
    Alcotest.test_case "helper: one domain per process" `Quick
      test_helper_one_domain;
    Alcotest.test_case "helper survives a raising poller" `Quick
      test_helper_survives_raising_poller;
  ]
