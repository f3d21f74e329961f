(* Waiting on the shared helper domain ([Par.Helper]) in tests. *)

(* Whether [cond] holds within [limit] seconds. *)
let eventually ?(limit = 5.0) cond =
  let t0 = Unix.gettimeofday () in
  while (not (cond ())) && Unix.gettimeofday () -. t0 < limit do
    Unix.sleepf 1e-4
  done;
  cond ()

(* A poller of an earlier test (a prefetch cursor not yet collected)
   leaves the helper once its owner is collected. *)
let quiesce () =
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool)
    "no helper left by earlier tests" true
    (eventually (fun () -> not (Par.Helper.running ())))

(* The id of the domain the helper runs on, read by a poller that
   finishes at its first call; [None] where no helper can run.  It
   returns once the poller has been dropped. *)
let helper_domain () =
  let id = Atomic.make (-1) in
  let poll () =
    Atomic.set id (Domain.self () :> int);
    Par.Helper.Finished
  in
  match Par.Helper.attach poll with
  | None -> None
  | Some p ->
    Alcotest.(check bool)
      "the probe was called and dropped" true
      (eventually (fun () -> not (Par.Helper.attached p)));
    Some (Atomic.get id)
