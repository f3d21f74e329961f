type status = Idle | Worked | Finished

type t = { poll : unit -> status; live : bool Atomic.t }

(* The registry.  [pollers] is replaced whole under [lock] and read by
   the helper once per pass, so a pass needs no lock and allocates
   nothing.  [running] is set by the [attach] that finds the helper
   parked (or not yet spawned) and cleared by the helper, under [lock],
   in the same step that drops its last poller; the helper then waits
   on [wake] until an [attach] sets it again.  [spawned] says whether
   the process's one helper domain exists. *)
let lock = Mutex.create ()

let wake = Condition.create ()

let pollers : t array Atomic.t = Atomic.make [||]

let running_ = Atomic.make false

let spawned = ref false

let running () = Atomic.get running_

let backoff n =
  if n land 4095 = 4095 then Unix.sleepf 20e-6 else Domain.cpu_relax ()

let attached p = Atomic.get p.live

let available () =
  Domain.is_main_domain () && Domain.recommended_domain_count () > 1

let without p ps =
  Array.of_list (List.filter (fun q -> q != p) (Array.to_list ps))

(* Drops a finished poller; [true] when it was the last, and the helper
   is then no longer [running].  [live] is cleared only after that, so
   an owner that sees its poller dropped also sees the helper stopped. *)
let drop p =
  Mutex.lock lock;
  let ps = without p (Atomic.get pollers) in
  Atomic.set pollers ps;
  let last_one = Array.length ps = 0 in
  if last_one then Atomic.set running_ false;
  Mutex.unlock lock;
  Atomic.set p.live false;
  last_one

(* Parks the helper until an [attach] sets [running] again. *)
let park () =
  Mutex.lock lock;
  while not (Atomic.get running_) do
    Condition.wait wake lock
  done;
  Mutex.unlock lock

(* The helper's loop.  It polls rather than blocks while pollers are
   attached: a domain that sleeps answers the engine's stop-the-world
   minor collections late (DESIGN.md section 11).  The poller whose
   drop empties the registry is the pass's last, so the pass ends as
   the helper wakes.  A poller that raises breaks its contract; it is
   dropped as if it had finished, so the others are still served. *)
let helper () =
  Printexc.record_backtrace true;
  while true do
    let ps = Atomic.get pollers in
    let worked = ref false in
    for i = 0 to Array.length ps - 1 do
      let p = ps.(i) in
      match p.poll () with
      | Idle -> ()
      | Worked -> worked := true
      | Finished | (exception _) -> if drop p then park ()
    done;
    if not !worked then Domain.cpu_relax ()
  done

(* Wakes the parked helper, spawning it first if need be; the caller
   holds [lock]. *)
let start () =
  if not !spawned then
    spawned :=
      (match Domain.spawn helper with
       | _ -> true
       | exception Failure _ -> false (* out of domains *));
  if !spawned then begin
    Atomic.set running_ true;
    Condition.signal wake
  end;
  !spawned

let attach poll =
  if not (available ()) then None
  else begin
    let p = { poll; live = Atomic.make true } in
    Mutex.lock lock;
    let before = Atomic.get pollers in
    Atomic.set pollers (Array.append before [| p |]);
    let started = Atomic.get running_ || start () in
    if not started then Atomic.set pollers before;
    Mutex.unlock lock;
    if started then Some p else None
  end
