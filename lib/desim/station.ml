(* FIFO service station, structure-of-arrays edition.

   The previous implementation allocated a [pending] record per submit
   and a fresh finish closure per service start.  Here the waiting room
   is a ring of parallel arrays (demands and enqueue times unboxed),
   the finish event is one preallocated closure per station, and the
   per-job float state lives in a small float array ([fstate]) because
   mutable float fields of a mixed record box on every store.

   Completions route through the station-wide [sink] installed by
   [set_sink], and service starts through the optional [start_hook]:
   the job's tag identifies it, so the ring holds no closures. *)

type job = { demand : float; tag : int; enqueued_at : float }

(* fstate indices *)
let f_speed = 0

let f_busy = 1

let f_cur_demand = 2

let f_cur_enqueued = 3

let f_cur_service = 4

type t = {
  sim : Sim.t;
  clockc : float array; (* Sim.time_cell: unboxed virtual-clock reads *)
  name : string;
  fstate : float array;
  mutable qd : float array; (* ring: demand *)
  mutable qe : float array; (* ring: enqueued_at *)
  mutable qt : int array; (* ring: tag *)
  mutable qhead : int;
  mutable qlen : int;
  mutable serving : bool;
  mutable cur_tag : int;
  mutable handle : Sim.handle;
  mutable finish_action : unit -> unit;
  mutable sink : tag:int -> latency:float -> unit;
  mutable start_hook : (tag:int -> service:float -> unit) option;
  mutable completed : int;
  mutable is_failed : bool;
}

let no_sink ~tag:_ ~latency:_ =
  failwith "Station: submit_tagged without set_sink"

let name t = t.name

let speed t = t.fstate.(f_speed)

let set_speed t s =
  if s <= 0.0 then invalid_arg "Station.set_speed: speed must be positive";
  t.fstate.(f_speed) <- s

let set_sink t sink = t.sink <- sink

let set_start_hook t hook = t.start_hook <- Some hook

let clear_hooks t =
  t.sink <- no_sink;
  t.start_hook <- None

let queue_length t = t.qlen

let in_service t = t.serving

let backlog_demand t =
  let acc = ref 0.0 in
  let mask = Array.length t.qd - 1 in
  for i = 0 to t.qlen - 1 do
    acc := !acc +. t.qd.((t.qhead + i) land mask)
  done;
  if t.serving then !acc +. t.fstate.(f_cur_demand) else !acc

let completed t = t.completed

let busy_time t = t.fstate.(f_busy)

let utilization t ~until =
  if until <= 0.0 then 0.0 else t.fstate.(f_busy) /. until

let failed t = t.is_failed

let grow_ring t =
  let cap = Array.length t.qd in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nd = Array.make ncap 0.0 in
  let ne = Array.make ncap 0.0 in
  let nt = Array.make ncap 0 in
  let mask = cap - 1 in
  for i = 0 to t.qlen - 1 do
    let j = (t.qhead + i) land mask in
    nd.(i) <- t.qd.(j);
    ne.(i) <- t.qe.(j);
    nt.(i) <- t.qt.(j)
  done;
  t.qd <- nd;
  t.qe <- ne;
  t.qt <- nt;
  t.qhead <- 0

let rec start_next t =
  if t.qlen = 0 then t.serving <- false
  else begin
    let mask = Array.length t.qd - 1 in
    let i = t.qhead in
    t.qhead <- (i + 1) land mask;
    t.qlen <- t.qlen - 1;
    let demand = t.qd.(i) in
    t.fstate.(f_cur_demand) <- demand;
    t.fstate.(f_cur_enqueued) <- t.qe.(i);
    t.cur_tag <- t.qt.(i);
    let service = demand /. t.fstate.(f_speed) in
    t.fstate.(f_cur_service) <- service;
    t.serving <- true;
    t.handle <-
      Sim.schedule_at t.sim ~time:(t.clockc.(0) +. service) t.finish_action;
    match t.start_hook with
    | Some f -> f ~tag:t.cur_tag ~service
    | None -> ()
  end

and finish t =
  t.completed <- t.completed + 1;
  t.fstate.(f_busy) <- t.fstate.(f_busy) +. t.fstate.(f_cur_service);
  t.serving <- false;
  let latency = t.clockc.(0) -. t.fstate.(f_cur_enqueued) in
  t.sink ~tag:t.cur_tag ~latency;
  if not t.is_failed then start_next t

let create sim ~name ~speed =
  if speed <= 0.0 then invalid_arg "Station.create: speed must be positive";
  let t =
    {
      sim;
      clockc = Sim.time_cell sim;
      name;
      fstate = [| speed; 0.0; 0.0; 0.0; 0.0 |];
      qd = [||];
      qe = [||];
      qt = [||];
      qhead = 0;
      qlen = 0;
      serving = false;
      cur_tag = 0;
      handle = Sim.null_handle;
      finish_action = (fun () -> ());
      sink = no_sink;
      start_hook = None;
      completed = 0;
      is_failed = false;
    }
  in
  t.finish_action <- (fun () -> finish t);
  t

let submit_tagged t ~demand ~tag =
  if demand <= 0.0 then
    invalid_arg "Station.submit_tagged: demand must be positive";
  if t.is_failed then failwith (t.name ^ ": submit to failed station");
  if t.qlen = Array.length t.qd then grow_ring t;
  let mask = Array.length t.qd - 1 in
  let i = (t.qhead + t.qlen) land mask in
  t.qd.(i) <- demand;
  t.qe.(i) <- t.clockc.(0);
  t.qt.(i) <- tag;
  t.qlen <- t.qlen + 1;
  if not t.serving then start_next t

let fail t =
  if t.is_failed then []
  else begin
    t.is_failed <- true;
    let head =
      if t.serving then begin
        Sim.cancel t.sim t.handle;
        t.serving <- false;
        [
          {
            demand = t.fstate.(f_cur_demand);
            tag = t.cur_tag;
            enqueued_at = t.fstate.(f_cur_enqueued);
          };
        ]
      end
      else []
    in
    let mask = Array.length t.qd - 1 in
    let rest = ref [] in
    for i = t.qlen - 1 downto 0 do
      let j = (t.qhead + i) land mask in
      rest :=
        { demand = t.qd.(j); tag = t.qt.(j); enqueued_at = t.qe.(j) } :: !rest
    done;
    t.qlen <- 0;
    head @ !rest
  end

let recover t =
  t.is_failed <- false;
  t.qlen <- 0;
  t.serving <- false
