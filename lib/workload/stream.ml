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

(* Prefetch: a batch cursor run ahead of its consumer by the shared
   helper domain ([Par.Helper]), through a ring of [ring_slots] column
   buffers of [ring_rows] rows each.  Whichever side holds [busy] calls
   [inner] and fills the next slot: the helper's poller whenever a slot
   is free, the consumer whenever it finds the ring empty.  So until the
   helper runs the consumer generates its own rows, and nothing is
   handed over.  A filled slot is published by bumping [filled]; the
   consumer copies rows out into the caller's columns and hands the
   slot back by bumping [freed].  Row data and counts are plain array
   writes, ordered by those atomics. *)
let ring_slots = 4 (* a power of two *)

let ring_rows = 256

type ring = {
  slots : cols array;
  counts : int array;  (* rows per published slot; -1: the cursor raised *)
  mutable error : (exn * Printexc.raw_backtrace) option;
  filled : int Atomic.t;  (* slots published so far *)
  freed : int Atomic.t;  (* slots handed back so far *)
  busy : bool Atomic.t;  (* a side is calling [inner] *)
  over : bool Atomic.t;  (* [inner] ended or raised, or the cursor is gone *)
}

let new_ring () =
  {
    slots = Array.init ring_slots (fun _ -> make_cols ring_rows);
    counts = Array.make ring_slots 0;
    error = None;
    filled = Atomic.make 0;
    freed = Atomic.make 0;
    busy = Atomic.make false;
    over = Atomic.make false;
  }

(* Fills and publishes the next slot, unless [inner] is over or the
   ring is full; the caller holds [busy]. *)
let produce ring inner =
  let k = Atomic.get ring.filled in
  if (not (Atomic.get ring.over)) && k - Atomic.get ring.freed < ring_slots
  then begin
    let i = k land (ring_slots - 1) in
    let n =
      match inner ring.slots.(i) with
      | n -> n
      | exception e ->
        ring.error <- Some (e, Printexc.get_raw_backtrace ());
        -1
    in
    ring.counts.(i) <- n;
    if n <= 0 then Atomic.set ring.over true;
    Atomic.set ring.filled (k + 1)
  end

(* The helper's side: one slot per call while the ring has room. *)
let poll ring inner () =
  if Atomic.get ring.over then Par.Helper.Finished
  else if
    Atomic.get ring.filled - Atomic.get ring.freed < ring_slots
    && Atomic.compare_and_set ring.busy false true
  then begin
    produce ring inner;
    Atomic.set ring.busy false;
    Par.Helper.Worked
  end
  else Par.Helper.Idle

(* The consumer's side: [taken] slots handed back, [pos] rows of the
   current one copied out.  An empty ring is filled on the spot unless
   the helper is already filling it. *)
let copy_out ring inner ~taken ~pos (c : cols) =
  let k = !taken in
  if !pos = 0 then begin
    let spins = ref 0 in
    while Atomic.get ring.filled <= k do
      if Atomic.compare_and_set ring.busy false true then begin
        produce ring inner;
        Atomic.set ring.busy false
      end
      else begin
        Par.Helper.backoff !spins;
        incr spins
      end
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

(* Where a prefetched cursor stands: before its first fill
   ([Unstarted]), generating its own rows with no helper ([Alone]), or
   sharing a ring with the helper ([Shared]). *)
type phase = Unstarted | Alone | Shared of ring

let prefetch ~rows inner =
  if not (Par.Helper.available () && rows > ring_slots * ring_rows) then inner
  else begin
    let phase = ref Unstarted in
    let produced = ref 0 in
    let taken = ref 0 in
    let pos = ref 0 in
    (* The helper is attached by the second call, not the first: the
       first is a run's set-up, and attaching blocks its caller (for
       about 74 us when it spawns the process's helper domain). *)
    let rec fill c =
      match !phase with
      | Shared ring -> copy_out ring inner ~taken ~pos c
      | Alone -> inner c
      | Unstarted when !produced = 0 ->
        let n = inner c in
        produced := n;
        if n = 0 then phase := Alone;
        n
      | Unstarted ->
        if rows - !produced <= ring_slots * ring_rows then phase := Alone
        else begin
          let ring = new_ring () in
          match Par.Helper.attach (poll ring inner) with
          | Some _ ->
            phase := Shared ring;
            (* A consumer dropped before the end must not leave its
               poller on the helper. *)
            Gc.finalise (fun _ -> Atomic.set ring.over true) fill
          | None -> phase := Alone
        end;
        fill c
    in
    fill
  end

type t = {
  duration : float;
  total : int;
  file_sets : string list;
  fresh : unit -> cursor;
  fresh_batch : unit -> batch_cursor;
}

(* The batch cursor of a generator that offers only items: each row is
   copied field by field out of the next item. *)
let batch_of_cursor (c : cursor) =
  let exhausted = ref false in
  fun (cols : cols) ->
    let cap = Array.length cols.times in
    let n = ref 0 in
    while (not !exhausted) && !n < cap do
      match c () with
      | None -> exhausted := true
      | Some it ->
        let j = !n in
        let req = it.request in
        cols.times.(j) <- it.time;
        cols.fs.(j) <- it.fs;
        cols.ops.(j) <- req.Sharedfs.Request.op;
        cols.path.(j) <- req.Sharedfs.Request.path_hash;
        cols.client.(j) <- req.Sharedfs.Request.client;
        cols.demand.(j) <- it.demand;
        n := j + 1
    done;
    !n

let make ?fresh_batch ~duration ~total ~file_sets ~fresh () =
  if not (duration > 0.0 && Float.is_finite duration) then
    invalid_arg "Stream.make: duration must be positive and finite";
  if total < 0 then invalid_arg "Stream.make: negative total";
  let fresh_batch =
    match fresh_batch with
    | Some f -> f
    | None -> fun () -> batch_of_cursor (fresh ())
  in
  { duration; total; file_sets; fresh; fresh_batch }

let duration t = t.duration

let total t = t.total

let file_sets t = t.file_sets

let start t = t.fresh ()

let start_batch t = Some (t.fresh_batch ())

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
