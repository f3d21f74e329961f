type item = {
  time : float;
  fs : int;
  request : Sharedfs.Request.t;
  demand : float;
}

type cursor = unit -> item option

(* Column layout for the allocation-free driver path: one parallel
   array per item field, so a generator can emit a batch of requests
   without building an [item] (or [Request.t]) record per arrival.
   [file_set] is represented only by its interned id; consumers that
   need the name resolve it through their own table. *)
type cols = {
  times : float array;
  fs : int array;
  ops : Sharedfs.Request.op array;
  path : int array;
  client : int array;
  demand : float array;
}

(* [fill cols] writes at most [Array.length cols.times] items and
   returns how many were written; 0 means exhausted.  Successive calls
   continue the stream, and times are nondecreasing across the whole
   sequence. *)
type batch_cursor = cols -> int

let make_cols n =
  if n <= 0 then invalid_arg "Stream.make_cols: non-positive size";
  {
    times = Array.make n 0.0;
    fs = Array.make n 0;
    ops = Array.make n Sharedfs.Request.Stat;
    path = Array.make n 0;
    client = Array.make n 0;
    demand = Array.make n 0.0;
  }

(* Prefetch: a batch cursor run ahead of its consumer on a helper
   domain, through a ring of [ring_slots] column buffers of [ring_rows]
   rows each.  The helper fills slots in order and publishes each by
   bumping [filled]; the consumer copies rows out into the caller's
   columns and hands a slot back by bumping [freed].  Both sides wait
   by polling with [Domain.cpu_relax]: the waits are short, and a
   helper that blocked between slots measured slower than no helper at
   all (see DESIGN.md section 11). *)
let ring_slots = 4 (* a power of two *)

let ring_rows = 256

(* One step of the consumer's wait for a slot, the [n]th in a row.
   Every 4,096th step (about 0.2 ms, several times what the helper
   takes to fill a slot) sleeps for 20 µs instead: a consumer that
   waits that long is most likely sharing its core with the helper,
   and spinning would hold the core until the scheduler preempted it.
   The helper itself only polls: a sleeping domain answers the
   stop-the-world minor collections of the engine's domain late. *)
let backoff n =
  if n land 4095 = 4095 then Unix.sleepf 20e-6 else Domain.cpu_relax ()

(* The helper's life, in [ring.state]: spawned, not yet running; running
   and waiting for the consumer to hand it the cursor; owning the cursor
   and filling the ring; told to exit.  Only the helper moves
   [starting] to [waiting]; only the consumer (or its finaliser) moves
   [waiting] to [handed] and anything to [stopped]. *)
let starting = 0

let waiting = 1

let handed = 2

let stopped = 3

type ring = {
  slots : cols array;
  counts : int array;  (* rows per published slot; -1: the cursor raised *)
  mutable error : (exn * Printexc.raw_backtrace) option;
  filled : int Atomic.t;  (* slots published so far *)
  freed : int Atomic.t;  (* slots handed back so far *)
  state : int Atomic.t;
}

let run_helper ring inner ~backtrace () =
  Printexc.record_backtrace backtrace;
  if Atomic.compare_and_set ring.state starting waiting then begin
    while Atomic.get ring.state = waiting do
      Domain.cpu_relax ()
    done;
    let k = ref 0 in
    let live = ref (Atomic.get ring.state = handed) in
    while !live do
      while
        !k - Atomic.get ring.freed >= ring_slots
        && Atomic.get ring.state = handed
      do
        Domain.cpu_relax ()
      done;
      if Atomic.get ring.state <> handed then live := false
      else begin
        let i = !k land (ring_slots - 1) in
        let n =
          match inner ring.slots.(i) with
          | n -> n
          | exception e ->
            ring.error <- Some (e, Printexc.get_raw_backtrace ());
            -1
        in
        ring.counts.(i) <- n;
        incr k;
        Atomic.set ring.filled !k;
        live := n > 0
      end
    done
  end

let new_ring () =
  {
    slots = Array.init ring_slots (fun _ -> make_cols ring_rows);
    counts = Array.make ring_slots 0;
    error = None;
    filled = Atomic.make 0;
    freed = Atomic.make 0;
    state = Atomic.make starting;
  }

(* The consumer's side: [taken] slots handed back, [pos] rows of the
   current one copied out. *)
let copy_out ring ~taken ~pos (c : cols) =
  let k = !taken in
  if !pos = 0 then begin
    let spins = ref 0 in
    while Atomic.get ring.filled <= k do
      backoff !spins;
      incr spins
    done
  end;
  let i = k land (ring_slots - 1) in
  let n = ring.counts.(i) in
  if n < 0 then
    match ring.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> assert false
  else begin
    let src = ring.slots.(i) in
    let p = !pos in
    let m = min (Array.length c.times) (n - p) in
    for j = 0 to m - 1 do
      c.times.(j) <- src.times.(p + j);
      c.fs.(j) <- src.fs.(p + j);
      c.ops.(j) <- src.ops.(p + j);
      c.path.(j) <- src.path.(p + j);
      c.client.(j) <- src.client.(p + j);
      c.demand.(j) <- src.demand.(p + j)
    done;
    (* The exhausted slot ([n = 0]) is never handed back: every later
       call finds it again and returns 0. *)
    if m > 0 && p + m = n then begin
      pos := 0;
      taken := k + 1;
      Atomic.set ring.freed (k + 1)
    end
    else pos := p + m;
    m
  end

(* Where a prefetched cursor stands: generating its own rows, with no
   helper yet ([Unstarted]) or ever ([Alone]); generating its own rows
   while its helper starts up ([Starting]); copying rows out of the
   ring its helper fills ([Handed]). *)
type phase = Unstarted | Alone | Starting of ring | Handed of ring

let prefetch ~rows inner =
  if
    not
      (Domain.is_main_domain ()
      && Domain.recommended_domain_count () > 1
      && rows > ring_slots * ring_rows)
  then inner
  else begin
    let phase = ref Unstarted in
    let produced = ref 0 in
    let taken = ref 0 in
    let pos = ref 0 in
    let stop () =
      match !phase with
      | Starting ring -> Atomic.set ring.state stopped
      | Unstarted | Alone | Handed _ -> ()
    in
    let local c =
      match inner c with
      | n ->
        produced := !produced + n;
        if n = 0 then stop ();
        n
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        stop ();
        Printexc.raise_with_backtrace e bt
    in
    (* The helper is spawned by the second call, not the first: the
       first is a run's set-up, and [Domain.spawn] blocks its caller.
       Until the helper runs, the consumer keeps calling [inner]
       itself, so the helper's start-up delay stalls nothing. *)
    let rec fill c =
      match !phase with
      | Handed ring -> copy_out ring ~taken ~pos c
      | Starting ring when Atomic.get ring.state = waiting ->
        Atomic.set ring.state handed;
        phase := Handed ring;
        copy_out ring ~taken ~pos c
      | Starting _ | Alone -> local c
      | Unstarted when !produced = 0 -> local c
      | Unstarted ->
        if rows - !produced <= ring_slots * ring_rows then phase := Alone
        else begin
          let ring = new_ring () in
          let backtrace = Printexc.backtrace_status () in
          match Domain.spawn (run_helper ring inner ~backtrace) with
          | (_ : unit Domain.t) ->
            phase := Starting ring;
            (* A consumer dropped before the end must not leave its
               helper polling forever. *)
            Gc.finalise (fun _ -> Atomic.set ring.state stopped) fill
          | exception Failure _ -> phase := Alone (* out of domains *)
        end;
        local c
    in
    fill
  end

type t = {
  duration : float;
  total : int;
  file_sets : string list;
  fresh : unit -> cursor;
  fresh_batch : (unit -> batch_cursor) option;
}

let make ?fresh_batch ~duration ~total ~file_sets ~fresh () =
  if duration <= 0.0 then
    invalid_arg "Stream.make: non-positive duration";
  if total < 0 then invalid_arg "Stream.make: negative total";
  { duration; total; file_sets; fresh; fresh_batch }

let duration t = t.duration

let total t = t.total

let file_sets t = t.file_sets

let start t = t.fresh ()

let start_batch t = Option.map (fun f -> f ()) t.fresh_batch

let iter f t =
  let c = start t in
  let rec go () =
    match c () with
    | Some it ->
      f it;
      go ()
    | None -> ()
  in
  go ()

let sorted_uniforms rng ~n ~lo ~hi =
  if n < 0 then invalid_arg "Stream.sorted_uniforms: negative n";
  if hi < lo then invalid_arg "Stream.sorted_uniforms: hi < lo";
  let k = ref 0 in
  let v = ref lo in
  fun () ->
    if !k >= n then invalid_arg "Stream.sorted_uniforms: exhausted";
    let remaining = n - !k in
    let u = Desim.Rng.float rng in
    (* Conditional law of the next order statistic: the minimum of the
       [remaining] uniforms still to come on [v, hi]. *)
    v :=
      !v
      +. (hi -. !v)
         *. (1.0 -. ((1.0 -. u) ** (1.0 /. float_of_int remaining)));
    incr k;
    !v

let to_trace t =
  let acc = ref [] in
  iter
    (fun it ->
      acc :=
        { Trace.time = it.time; request = it.request; demand = it.demand }
        :: !acc)
    t;
  Trace.of_sorted_records ~duration:t.duration (List.rev !acc)

let of_trace trace =
  let names = Trace.file_sets trace in
  let records = Trace.records trace in
  let n = Array.length records in
  (* Pre-resolve each record's file-set id once, so cursors never hash
     a name. *)
  let ids = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.add ids name i) names;
  let fs_of = Array.make (max 1 n) 0 in
  Array.iteri
    (fun i r ->
      fs_of.(i) <- Hashtbl.find ids r.Trace.request.Sharedfs.Request.file_set)
    records;
  let fresh () =
    let i = ref 0 in
    fun () ->
      if !i >= n then None
      else begin
        let r = records.(!i) in
        let it =
          {
            time = r.Trace.time;
            fs = fs_of.(!i);
            request = r.Trace.request;
            demand = r.Trace.demand;
          }
        in
        incr i;
        Some it
      end
  in
  let fresh_batch () =
    let i = ref 0 in
    fun (c : cols) ->
      let cap = Array.length c.times in
      let count = min cap (n - !i) in
      let base = !i in
      for j = 0 to count - 1 do
        let r = records.(base + j) in
        let req = r.Trace.request in
        c.times.(j) <- r.Trace.time;
        c.fs.(j) <- fs_of.(base + j);
        c.ops.(j) <- req.Sharedfs.Request.op;
        c.path.(j) <- req.Sharedfs.Request.path_hash;
        c.client.(j) <- req.Sharedfs.Request.client;
        c.demand.(j) <- r.Trace.demand
      done;
      i := base + count;
      count
  in
  make ~fresh_batch ~duration:(Trace.duration trace) ~total:n ~file_sets:names
    ~fresh ()
