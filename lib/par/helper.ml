type status = Idle | Worked | Finished

type t = { poll : unit -> status; live : bool Atomic.t }

(* The registry.  [pollers] is replaced whole under [lock] and read by
   the helper once per pass, so a pass needs no lock and allocates
   nothing.  [running] is set by the [attach] that spawns the helper
   and cleared by the helper, under [lock], in the same step that drops
   its last poller; [last] is the most recent helper domain, joined
   before the next is spawned so that at most one exists. *)
let lock = Mutex.create ()

let pollers : t array Atomic.t = Atomic.make [||]

let running_ = Atomic.make false

let last : unit Domain.t option ref = ref None

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

(* The helper's loop.  It polls rather than blocks: a domain that
   sleeps answers the engine's stop-the-world minor collections late
   (DESIGN.md section 11). *)
let helper () =
  Printexc.record_backtrace true;
  let continue = ref true in
  while !continue do
    let ps = Atomic.get pollers in
    let worked = ref false in
    for i = 0 to Array.length ps - 1 do
      let p = ps.(i) in
      match p.poll () with
      | Idle -> ()
      | Worked -> worked := true
      | Finished -> if drop p then continue := false
    done;
    if !continue && not !worked then Domain.cpu_relax ()
  done

(* Joins the last helper once it has stopped; the caller holds [lock].
   A stopped helper takes the lock no more, so this cannot wait on it. *)
let join_stopped () =
  if not (Atomic.get running_) then begin
    Option.iter Domain.join !last;
    last := None
  end

let await_exit () =
  Mutex.lock lock;
  join_stopped ();
  Mutex.unlock lock

(* Starts a helper; the caller holds [lock]. *)
let spawn () =
  join_stopped ();
  match Domain.spawn helper with
  | d ->
    last := Some d;
    Atomic.set running_ true;
    true
  | exception Failure _ -> false (* out of domains *)

let attach poll =
  if not (available ()) then None
  else begin
    let p = { poll; live = Atomic.make true } in
    Mutex.lock lock;
    let before = Atomic.get pollers in
    Atomic.set pollers (Array.append before [| p |]);
    let started = Atomic.get running_ || spawn () in
    if not started then Atomic.set pollers before;
    Mutex.unlock lock;
    if started then Some p else None
  end


