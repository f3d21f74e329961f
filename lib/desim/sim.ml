(* Allocation-free scheduler core.

   The heap payload is a bare [int] naming a slot in a pool of parallel
   arrays ([actions], [gens], [dead]); scheduling reuses slots through a
   free-list, so the steady-state hot path — schedule, fire, schedule —
   allocates nothing.  A handle is an immediate int packing
   [(generation, slot)]; the generation is bumped whenever a slot is
   freed, so stale handles (to fired or compacted-away events) can never
   cancel an unrelated later event occupying the same slot.

   The virtual clock lives in a one-element float array rather than a
   mutable record field: a mutable float field of a mixed record boxes
   on every store (two words per fired event), while a float-array store
   is flat.  Hot readers (stations, the cluster) obtain the cell once
   via [time_cell] and read it unboxed. *)

type t = {
  heap : int Event_heap.t;
  mutable actions : (unit -> unit) array;  (* slot -> event action *)
  mutable gens : int array;  (* slot -> generation, bumped on free *)
  mutable dead : Bytes.t;  (* slot -> '\001' when cancelled (tombstone) *)
  mutable free : int array;  (* free-slot stack *)
  mutable free_len : int;
  mutable batch_slots : int array;  (* scratch for [schedule_monotone] *)
  clockv : float array;  (* single cell: the virtual clock *)
  (* External event source (the streaming driver's arrival cursor).
     [source_next.(0)] is the time of its next event, [infinity] when
     exhausted or absent; keeping it in a float cell makes the per-event
     "source or heap?" comparison an unboxed load.  Source events never
     enter the heap at all — the run loop merges the two ordered
     streams — so heap occupancy excludes arrivals entirely. *)
  mutable source_next : float array;
  mutable source_fire : unit -> unit;
  mutable fired : int;
  mutable live_count : int;
  mutable peak_live : int;
  mutable on_event : (float -> unit) option;
}

(* Slots fit in 26 bits (67M concurrently pending events — far beyond
   any heap this engine builds); the generation takes the rest. *)
let slot_bits = 26

let slot_mask = (1 lsl slot_bits) - 1

type handle = int

(* Slot bits all-ones with an impossible generation: no live event ever
   has this handle, so [cancel] is a no-op and [cancelled] is [true]. *)
let null_handle = -1

exception Past_event of { now : float; requested : float }

let no_action () = ()

let create () =
  {
    heap = Event_heap.create ();
    actions = [||];
    gens = [||];
    dead = Bytes.empty;
    free = [||];
    free_len = 0;
    batch_slots = [||];
    clockv = [| 0.0 |];
    source_next = [| Float.infinity |];
    source_fire = no_action;
    fired = 0;
    live_count = 0;
    peak_live = 0;
    on_event = None;
  }

let now t = t.clockv.(0)

let time_cell t = t.clockv

let pending t = t.live_count

let peak_pending t = t.peak_live

let grow_slots t =
  let cap = Array.length t.actions in
  let ncap = if cap = 0 then 64 else cap * 2 in
  if ncap > slot_mask + 1 then failwith "Sim: event slot pool exhausted";
  let nactions = Array.make ncap no_action in
  let ngens = Array.make ncap 0 in
  let ndead = Bytes.make ncap '\000' in
  let nfree = Array.make ncap 0 in
  Array.blit t.actions 0 nactions 0 cap;
  Array.blit t.gens 0 ngens 0 cap;
  Bytes.blit t.dead 0 ndead 0 cap;
  Array.blit t.free 0 nfree 0 t.free_len;
  t.actions <- nactions;
  t.gens <- ngens;
  t.dead <- ndead;
  t.free <- nfree;
  for s = ncap - 1 downto cap do
    nfree.(t.free_len) <- s;
    t.free_len <- t.free_len + 1
  done

let alloc_slot t f =
  if t.free_len = 0 then grow_slots t;
  t.free_len <- t.free_len - 1;
  let s = t.free.(t.free_len) in
  t.actions.(s) <- f;
  s

let free_slot t s =
  t.actions.(s) <- no_action;
  t.gens.(s) <- t.gens.(s) + 1;
  Bytes.unsafe_set t.dead s '\000';
  t.free.(t.free_len) <- s;
  t.free_len <- t.free_len + 1

let schedule_at t ~time f =
  if time < t.clockv.(0) then
    raise (Past_event { now = t.clockv.(0); requested = time });
  let s = alloc_slot t f in
  let (_ : int) = Event_heap.add t.heap ~time s in
  t.live_count <- t.live_count + 1;
  if t.live_count > t.peak_live then t.peak_live <- t.live_count;
  (t.gens.(s) lsl slot_bits) lor s

let schedule t ~delay f = schedule_at t ~time:(t.clockv.(0) +. delay) f

let schedule_monotone t ~times ~count f =
  if count > 0 then begin
    if times.(0) < t.clockv.(0) then
      raise (Past_event { now = t.clockv.(0); requested = times.(0) });
    if Array.length t.batch_slots < count then
      t.batch_slots <- Array.make count 0;
    for i = 0 to count - 1 do
      t.batch_slots.(i) <- alloc_slot t f
    done;
    Event_heap.add_sorted t.heap ~times ~count t.batch_slots;
    t.live_count <- t.live_count + count;
    if t.live_count > t.peak_live then t.peak_live <- t.live_count
  end

(* Cancelled events stay in the heap as tombstones until they reach the
   head.  Workloads that cancel aggressively (e.g. timeout races) can
   leave the heap mostly dead, so once dead entries outnumber live ones
   in a non-trivial heap we compact in one O(n) pass.  Compaction keeps
   the survivors' (time, seq) keys, so the fired-event sequence is
   byte-identical with or without it. *)
let compaction_min_size = 64

let cancel t h =
  let s = h land slot_mask in
  let gen = h lsr slot_bits in
  if
    s < Array.length t.gens
    && t.gens.(s) = gen
    && Bytes.get t.dead s = '\000'
  then begin
    Bytes.set t.dead s '\001';
    (* Drop the action now: a cancelled event must not retain its
       closure (and whatever that captured) until it bubbles up. *)
    t.actions.(s) <- no_action;
    t.live_count <- t.live_count - 1;
    let size = Event_heap.size t.heap in
    if size >= compaction_min_size && size - t.live_count > size / 2 then
      Event_heap.compact t.heap ~keep:(fun s ->
          if Bytes.get t.dead s = '\001' then begin
            free_slot t s;
            false
          end
          else true)
  end

let cancelled t h =
  let s = h land slot_mask in
  let gen = h lsr slot_bits in
  s >= Array.length t.gens
  || t.gens.(s) <> gen
  || Bytes.get t.dead s = '\001'

(* Drop cancelled entries sitting at the head so that peeking reports
   the time of the next event that will actually fire. *)
let purge_dead t =
  let h = t.heap in
  let continue = ref true in
  while !continue do
    if h.Event_heap.len = 0 then continue := false
    else begin
      let s = h.Event_heap.values.(0) in
      if Bytes.get t.dead s = '\001' then begin
        Event_heap.drop_min h;
        free_slot t s
      end
      else continue := false
    end
  done

(* Fire the head event; the caller guarantees it is live.  The slot is
   freed before the action runs, so the action may immediately reuse
   it — and a fired event's handle reports [cancelled] just as before. *)
let fire_head t =
  let h = t.heap in
  let time = h.Event_heap.times.(0) in
  let s = h.Event_heap.values.(0) in
  Event_heap.drop_min h;
  t.live_count <- t.live_count - 1;
  t.clockv.(0) <- time;
  t.fired <- t.fired + 1;
  let f = t.actions.(s) in
  free_slot t s;
  f ();
  match t.on_event with None -> () | Some hook -> hook time

(* Fire the next source event.  The source contract (see the mli)
   guarantees nondecreasing times, checked here so a buggy cursor
   surfaces as [Past_event] instead of time travel, and a NaN time as
   [Invalid_argument] instead of a NaN clock.  One comparison covers
   both on the way in: it is false for NaN. *)
let fire_source t time =
  if not (time >= t.clockv.(0)) then begin
    if Float.is_nan time then invalid_arg "Sim.fire_source: NaN time";
    raise (Past_event { now = t.clockv.(0); requested = time })
  end;
  t.clockv.(0) <- time;
  t.fired <- t.fired + 1;
  t.source_fire ();
  match t.on_event with None -> () | Some hook -> hook time

let set_source t ~next ~fire =
  if Array.length next <> 1 then
    invalid_arg "Sim.set_source: next must be a one-element cell";
  t.source_next <- next;
  t.source_fire <- fire

let clear_source t =
  t.source_next <- [| Float.infinity |];
  t.source_fire <- no_action

(* One engine step: merge the heap with the external source, earliest
   first; the source wins ties (exact float ties between independent
   event times are measure-zero in every workload this engine runs, so
   the convention is about determinism, not behaviour). *)
let step t =
  purge_dead t;
  let st = t.source_next.(0) in
  if t.heap.Event_heap.len = 0 then
    if st = Float.infinity then false
    else begin
      fire_source t st;
      true
    end
  else if st <= t.heap.Event_heap.times.(0) then begin
    fire_source t st;
    true
  end
  else begin
    fire_head t;
    true
  end

let run t = while step t do () done

(* Unlike the previous engine, this purges tombstones exactly once per
   fired event: [fire_head] takes the already-purged head directly
   rather than re-entering [step]'s purge. *)
let run_until t ~time =
  let continue = ref true in
  while !continue do
    purge_dead t;
    let h = t.heap in
    let st = t.source_next.(0) in
    let ht =
      if h.Event_heap.len = 0 then Float.infinity else h.Event_heap.times.(0)
    in
    if st <= ht then
      if st > time then continue := false else fire_source t st
    else if ht > time then continue := false
    else fire_head t
  done;
  if time > t.clockv.(0) then t.clockv.(0) <- time

let events_fired t = t.fired

let set_on_event t hook = t.on_event <- Some hook

let clear_on_event t = t.on_event <- None

type profile = { fired : int; wall_seconds : float; events_per_second : float }

let run_profiled (t : t) =
  let wall_start = Clock.now_ns () in
  let fired_start = t.fired in
  run t;
  let wall_seconds = Clock.seconds_since wall_start in
  let fired = t.fired - fired_start in
  {
    fired;
    wall_seconds;
    events_per_second =
      (if wall_seconds > 0.0 then float_of_int fired /. wall_seconds
       else 0.0);
  }
