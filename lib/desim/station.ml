(* FIFO service station, structure-of-arrays edition.

   The previous implementation allocated a [pending] record per submit
   and a fresh finish closure per service start.  Here the waiting room
   is a ring of parallel arrays (demands and enqueue times unboxed),
   the finish event is one preallocated closure per station, and the
   per-job float state lives in a small float array ([fstate]) because
   mutable float fields of a mixed record box on every store.

   Completions dispatch two ways: the legacy [submit] stores a per-job
   [on_complete] closure in the ring, while the allocation-free
   [submit_tagged] stores a shared sentinel and routes the completion
   through the station-wide [sink] installed by [set_sink] — the tag
   identifies the job.  Service starts follow the same split: a per-job
   [on_start] closure, or the station-wide [start_hook] for tagged
   jobs. *)

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
  mutable qoc : (latency:float -> unit) array; (* ring: completion *)
  mutable qos : (service:float -> unit) option array; (* ring: start hook *)
  mutable qhead : int;
  mutable qlen : int;
  mutable serving : bool;
  mutable cur_tag : int;
  mutable cur_oc : latency:float -> unit;
  mutable cur_os : (service:float -> unit) option;
  mutable handle : Sim.handle;
  mutable finish_action : unit -> unit;
  sink_sentinel : latency:float -> unit;
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
  let noc = Array.make ncap t.sink_sentinel in
  let nos = Array.make ncap None in
  let mask = cap - 1 in
  for i = 0 to t.qlen - 1 do
    let j = (t.qhead + i) land mask in
    nd.(i) <- t.qd.(j);
    ne.(i) <- t.qe.(j);
    nt.(i) <- t.qt.(j);
    noc.(i) <- t.qoc.(j);
    nos.(i) <- t.qos.(j)
  done;
  t.qd <- nd;
  t.qe <- ne;
  t.qt <- nt;
  t.qoc <- noc;
  t.qos <- nos;
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
    t.cur_oc <- t.qoc.(i);
    t.cur_os <- t.qos.(i);
    (* Release ring references so completed jobs' closures can be
       collected while later jobs wait. *)
    t.qoc.(i) <- t.sink_sentinel;
    t.qos.(i) <- None;
    let service = demand /. t.fstate.(f_speed) in
    t.fstate.(f_cur_service) <- service;
    t.serving <- true;
    t.handle <-
      Sim.schedule_at t.sim ~time:(t.clockc.(0) +. service) t.finish_action;
    match t.cur_os with
    | Some f -> f ~service
    | None -> (
      if t.cur_oc == t.sink_sentinel then
        match t.start_hook with
        | Some f -> f ~tag:t.cur_tag ~service
        | None -> ())
  end

and finish t =
  t.completed <- t.completed + 1;
  t.fstate.(f_busy) <- t.fstate.(f_busy) +. t.fstate.(f_cur_service);
  t.serving <- false;
  let latency = t.clockc.(0) -. t.fstate.(f_cur_enqueued) in
  let oc = t.cur_oc in
  t.cur_oc <- t.sink_sentinel;
  t.cur_os <- None;
  if oc == t.sink_sentinel then t.sink ~tag:t.cur_tag ~latency
  else oc ~latency;
  if not t.is_failed then start_next t

let create sim ~name ~speed =
  if speed <= 0.0 then invalid_arg "Station.create: speed must be positive";
  let sentinel ~latency:_ = () in
  let t =
    {
      sim;
      clockc = Sim.time_cell sim;
      name;
      fstate = [| speed; 0.0; 0.0; 0.0; 0.0 |];
      qd = [||];
      qe = [||];
      qt = [||];
      qoc = [||];
      qos = [||];
      qhead = 0;
      qlen = 0;
      serving = false;
      cur_tag = 0;
      cur_oc = sentinel;
      cur_os = None;
      handle = Sim.null_handle;
      finish_action = (fun () -> ());
      sink_sentinel = sentinel;
      sink = no_sink;
      start_hook = None;
      completed = 0;
      is_failed = false;
    }
  in
  t.finish_action <- (fun () -> finish t);
  t

let enqueue t ~demand ~tag ~oc ~os =
  if demand <= 0.0 then invalid_arg "Station.submit: demand must be positive";
  if t.is_failed then failwith (t.name ^ ": submit to failed station");
  if t.qlen = Array.length t.qd then grow_ring t;
  let mask = Array.length t.qd - 1 in
  let i = (t.qhead + t.qlen) land mask in
  t.qd.(i) <- demand;
  t.qe.(i) <- t.clockc.(0);
  t.qt.(i) <- tag;
  t.qoc.(i) <- oc;
  t.qos.(i) <- os;
  t.qlen <- t.qlen + 1;
  if not t.serving then start_next t

let submit ?on_start t ~demand ~tag ~on_complete =
  enqueue t ~demand ~tag ~oc:on_complete ~os:on_start

let submit_tagged t ~demand ~tag =
  enqueue t ~demand ~tag ~oc:t.sink_sentinel ~os:None

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
        { demand = t.qd.(j); tag = t.qt.(j); enqueued_at = t.qe.(j) } :: !rest;
      t.qoc.(j) <- t.sink_sentinel;
      t.qos.(j) <- None
    done;
    t.qlen <- 0;
    head @ !rest
  end

let recover t =
  t.is_failed <- false;
  let mask = Array.length t.qd - 1 in
  for i = 0 to t.qlen - 1 do
    let j = (t.qhead + i) land mask in
    t.qoc.(j) <- t.sink_sentinel;
    t.qos.(j) <- None
  done;
  t.qlen <- 0;
  t.serving <- false
