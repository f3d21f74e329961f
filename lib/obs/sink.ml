type t = {
  name : string;
  emit : Event.t -> unit;
  record :
    Record.source -> Record.kind -> id:int -> parent:int -> server:int ->
    fs:int -> client:int -> op:int -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let make ?(flush = ignore) ?(close = ignore) ~name emit =
  {
    name;
    emit;
    record =
      (fun src kind ~id ~parent ~server ~fs ~client ~op ->
        emit
          (Record.to_event src kind ~id ~parent ~server ~fs ~client ~op
             ~time:src.Record.clock.(0)));
    flush;
    close;
  }

let null =
  {
    name = "null";
    emit = ignore;
    record = (fun _ _ ~id:_ ~parent:_ ~server:_ ~fs:_ ~client:_ ~op:_ -> ());
    flush = ignore;
    close = ignore;
  }

module Ring = struct
  (* Free slots hold [placeholder], so a push stores the event itself
     rather than an option around it. *)
  type ring = {
    slots : Event.t array;
    mutable next : int;  (* insertion index *)
    mutable stored : int;
    mutable dropped : int;
  }

  let placeholder = Event.Invariant_violation { time = 0.0; what = "" }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Sink.Ring.create: capacity must be > 0";
    {
      slots = Array.make capacity placeholder;
      next = 0;
      stored = 0;
      dropped = 0;
    }

  let push r e =
    let capacity = Array.length r.slots in
    if r.stored = capacity then r.dropped <- r.dropped + 1
    else r.stored <- r.stored + 1;
    r.slots.(r.next) <- e;
    r.next <- (r.next + 1) mod capacity

  (* Dropped events are silent data loss for forensics; surface the
     count once, at close, so a truncated trace never goes unnoticed. *)
  let sink r =
    make ~name:"ring" (push r) ~close:(fun () ->
        if r.dropped > 0 then
          Printf.eprintf "obs: ring sink dropped %d event(s) (capacity %d)\n%!"
            r.dropped (Array.length r.slots))

  let length r = r.stored

  let dropped r = r.dropped

  let contents r =
    let capacity = Array.length r.slots in
    let oldest = (r.next - r.stored + capacity) mod capacity in
    List.init r.stored (fun i -> r.slots.((oldest + i) mod capacity))

  let clear r =
    Array.fill r.slots 0 (Array.length r.slots) placeholder;
    r.next <- 0;
    r.stored <- 0;
    r.dropped <- 0
end

(* Encode each event straight into a byte writer and hand whole lines
   to the channel in ~64 KiB batches: per-event [output_string] calls
   and per-event strings dominate traced-run wall time, which distorts
   exactly the timings a trace is meant to capture.  The buffer drains
   once it holds [jsonl_buffer_size] bytes and on close, so a closed
   sink has always written every event; an event larger than the
   buffer grows it.  Each writer has its own number cache: a request's
   [time] repeats across its span begins and ends, so most numbers are
   formatted once.  A request record is written from its source's
   templates ([Record.write_jsonl]), which the emitter rebuilds
   whenever a record's source differs from the last one.

   Encoding moves to the helper domain ([Par.Helper], DESIGN.md section
   11) after the first [inline_events] lines since creation or a
   flush, so a run's set-up never wakes it.  Lines then cross to the
   helper a block at a time: [emit] and [record] store a line in the
   block being filled, counted in a plain field, and publish the block
   with one atomic store once it is full ([flush] publishes a partial
   one).  Whichever side claims a published block encodes it into the
   block's own writer: the helper whenever one waits, the emitter when
   it finds every block taken, rather than wait for a helper that is
   slow or not yet running.  Encoded blocks join the buffer strictly
   in order, appended by one side at a time. *)
let jsonl_buffer_size = 65536

let inline_events = 64

(* [blocks] (a power of two) blocks of [block_lines] lines.  In every
   column a block's slots are followed by a cache line of unused ones,
   so the emitter filling one block and a side encoding the block
   before it never share a line. *)
let blocks = 4

let block_lines = 64

let stride = block_lines + 8

(* An atomic on a cache line of its own.  OCaml 5.1 has no
   [Atomic.make_contended]: the cell is a 16-word block whose first
   word the atomic operations use, so whatever the allocator places
   after it starts a cache line further on. *)
let padded_atomic (v : 'a) : 'a Atomic.t =
  let b = Obj.new_block 0 16 in
  Obj.set_field b 0 (Obj.repr v);
  Obj.obj b

(* Everything the helper touches, built when it first attaches.  Block
   [c], counted over the sink's life, lives in the slots from
   [(c land (blocks - 1)) * stride].  The emitter fills it, sets its
   [lines] and moves [published] past it; a side moves [claimed] past
   it with a CAS, encodes it into its writer and sets its [encoded] to
   [c + 1]; the side holding [writing] appends it to [buf] and moves
   [written] past it, which frees the block for the emitter.  Slot [j]
   holds an event when [events.(j)] is not [Ring.placeholder], and a
   request record in the other columns otherwise. *)
type ring = {
  out : out_channel;
  buf : Json.Writer.t;  (* the sink's *)
  events : Event.t array;
  kinds : Record.kind array;
  tpls : Record.templates array;
  ids : int array;
  parents : int array;
  servers : int array;
  fss : int array;
  clients : int array;
  ops : int array;
  times : float array;
  lines : int array;  (* per block *)
  writers : Json.Writer.t array;  (* per block *)
  published : int Atomic.t;
  claimed : int Atomic.t;
  encoded : int Atomic.t array;  (* per block *)
  written : int Atomic.t;
  writing : bool Atomic.t;
  release : bool Atomic.t;  (* finish once every block is written *)
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* the first encode or write error, for the emitter *)
}

(* The emitter's side.  While [helper] is attached, [head] is the block
   being filled and [filled] the lines it holds; blocks below [limit]
   were free when [written] was last read. *)
type jsonl = {
  oc : out_channel;
  w : Json.Writer.t;
  mutable tpl : Record.templates;  (* the last record's source's *)
  mutable ring : ring option;
  mutable helper : Par.Helper.t option;
  mutable head : int;
  mutable filled : int;
  mutable limit : int;
  mutable inline : int;  (* lines encoded here since the last flush *)
}

let no_templates =
  Record.templates { Record.clock = [| 0.0 |]; file_sets = [||]; ops = [||] }

let make_ring oc w =
  let slots = blocks * stride in
  let ints () = Array.make slots 0 in
  {
    out = oc;
    buf = w;
    events = Array.make slots Ring.placeholder;
    kinds = Array.make slots Record.Request_begin;
    tpls = Array.make slots no_templates;
    ids = ints ();
    parents = ints ();
    servers = ints ();
    fss = ints ();
    clients = ints ();
    ops = ints ();
    times = Array.make slots 0.0;
    lines = Array.make blocks 0;
    writers =
      Array.init blocks (fun _ ->
          Json.Writer.create (jsonl_buffer_size / blocks));
    published = padded_atomic 0;
    claimed = padded_atomic 0;
    encoded = Array.init blocks (fun _ -> padded_atomic 0);
    written = padded_atomic 0;
    writing = padded_atomic false;
    release = padded_atomic false;
    error = Atomic.make None;
  }

let end_line s =
  Json.Writer.char s.w '\n';
  if Json.Writer.length s.w >= jsonl_buffer_size then
    Json.Writer.output s.oc s.w

let encode s e =
  Event.write_jsonl s.w e;
  end_line s

let templates s src =
  if Record.source s.tpl != src then s.tpl <- Record.templates src;
  s.tpl

let encode_record s src kind ~id ~parent ~server ~fs ~client ~op =
  Record.write_jsonl s.w (templates s src) kind ~id ~parent ~server ~fs
    ~client ~op ~times:src.Record.clock ~at:0;
  end_line s

(* Encodes block [c], which this side claimed, into the block's writer. *)
let encode_block r c =
  let b = c land (blocks - 1) in
  let w = r.writers.(b) and first = b * stride in
  for j = first to first + r.lines.(b) - 1 do
    let e = r.events.(j) in
    if e != Ring.placeholder then begin
      Event.write_jsonl w e;
      r.events.(j) <- Ring.placeholder
    end
    else
      Record.write_jsonl w r.tpls.(j) r.kinds.(j) ~id:r.ids.(j)
        ~parent:r.parents.(j) ~server:r.servers.(j) ~fs:r.fss.(j)
        ~client:r.clients.(j) ~op:r.ops.(j) ~times:r.times ~at:j;
    Json.Writer.char w '\n'
  done;
  Atomic.set r.encoded.(b) (c + 1)

(* Claims and encodes the oldest published block nobody has claimed. *)
let encode_next r =
  let c = Atomic.get r.claimed in
  c < Atomic.get r.published
  && Atomic.compare_and_set r.claimed c (c + 1)
  && begin
       encode_block r c;
       true
     end

(* Appends block [n] and the encoded blocks after it, in order, to the
   buffer; the caller holds [writing]. *)
let rec append_from r n =
  let b = n land (blocks - 1) in
  if Atomic.get r.encoded.(b) = n + 1 then begin
    let w = r.writers.(b) in
    Json.Writer.append r.buf w;
    Json.Writer.clear w;
    if Json.Writer.length r.buf >= jsonl_buffer_size then
      Json.Writer.output r.out r.buf;
    Atomic.set r.written (n + 1);
    append_from r (n + 1)
  end

(* Appends the blocks encoded next in order, unless the other side is
   appending. *)
let append_encoded r =
  let n = Atomic.get r.written in
  Atomic.get r.encoded.(n land (blocks - 1)) = n + 1
  && Atomic.compare_and_set r.writing false true
  && begin
       append_from r (Atomic.get r.written);
       Atomic.set r.writing false;
       true
     end

(* One step of either side: append what is encoded, else encode a
   block.  An error is kept for the emitter ([Finished]); the helper
   stops at it, and [writing] stays taken. *)
let work r =
  match append_encoded r || encode_next r with
  | true -> Par.Helper.Worked
  | false -> Par.Helper.Idle
  | exception ex ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set r.error None (Some (ex, bt)) : bool);
    Par.Helper.Finished

(* [release] is read before [written]: the emitter sets it after its
   last publication, so a poller that sees it and finds every block
   written is done. *)
let poll r () =
  let releasing = Atomic.get r.release in
  match Atomic.get r.error with
  | Some _ -> Par.Helper.Finished
  | None -> (
    match work r with
    | Par.Helper.Idle
      when releasing && Atomic.get r.written = Atomic.get r.published ->
      Par.Helper.Finished
    | status -> status)

(* Back to encoding here, once the helper has left the ring.  After an
   error the lines still in the ring are dropped and the error raised. *)
let detached s =
  s.helper <- None;
  s.inline <- 0;
  match s.ring with
  | None -> ()
  | Some r -> (
    Atomic.set r.release false;
    Atomic.set r.writing false;
    Atomic.set r.claimed s.head;
    Atomic.set r.written s.head;
    s.filled <- 0;
    s.limit <- s.head + blocks;
    Array.iter Json.Writer.clear r.writers;
    Array.fill r.events 0 (Array.length r.events) Ring.placeholder;
    match Atomic.exchange r.error None with
    | None -> ()
    | Some (ex, bt) -> Printexc.raise_with_backtrace ex bt)

(* Waits for the helper to leave after an error, then raises it. *)
let leave s h =
  let spins = ref 0 in
  while Par.Helper.attached h do
    Par.Helper.backoff !spins;
    incr spins
  done;
  detached s

let publish s r =
  r.lines.(s.head land (blocks - 1)) <- s.filled;
  s.head <- s.head + 1;
  s.filled <- 0;
  Atomic.set r.published s.head

(* Block [head] has not been written out since its last use: append and
   encode blocks here until it has. *)
let make_room s r h =
  s.limit <- Atomic.get r.written + blocks;
  let spins = ref 0 in
  while s.head >= s.limit do
    (match if Par.Helper.attached h then work r else Par.Helper.Finished with
    | Par.Helper.Idle ->
      Par.Helper.backoff !spins;
      incr spins
    | Par.Helper.Worked -> ()
    | Par.Helper.Finished -> leave s h);
    s.limit <- Atomic.get r.written + blocks
  done

(* A line stored in block [head]; the one that fills it publishes it. *)
let stored s r h =
  s.filled <- s.filled + 1;
  if s.filled = block_lines then begin
    publish s r;
    if s.head >= s.limit then make_room s r h
  end

(* A line encoded here; the [inline_events]th attaches the helper where
   one can run. *)
let inlined s =
  s.inline <- s.inline + 1;
  if s.inline = inline_events && Par.Helper.available () then begin
    let r =
      match s.ring with
      | Some r -> r
      | None ->
        let r = make_ring s.oc s.w in
        s.ring <- Some r;
        r
    in
    s.helper <- Par.Helper.attach (poll r)
  end

let[@inline] slot s = ((s.head land (blocks - 1)) * stride) + s.filled

let rec emit s e =
  match (s.helper, s.ring) with
  | Some h, Some r when Par.Helper.attached h ->
    r.events.(slot s) <- e;
    stored s r h
  | Some _, _ ->
    detached s;
    emit s e
  | None, _ ->
    encode s e;
    inlined s

let rec record s src kind ~id ~parent ~server ~fs ~client ~op =
  match (s.helper, s.ring) with
  | Some h, Some r when Par.Helper.attached h ->
    let j = slot s and tpl = templates s src in
    r.kinds.(j) <- kind;
    if r.tpls.(j) != tpl then r.tpls.(j) <- tpl;
    r.ids.(j) <- id;
    r.parents.(j) <- parent;
    r.servers.(j) <- server;
    r.fss.(j) <- fs;
    r.clients.(j) <- client;
    r.ops.(j) <- op;
    r.times.(j) <- src.Record.clock.(0);
    stored s r h
  | Some _, _ ->
    detached s;
    record s src kind ~id ~parent ~server ~fs ~client ~op
  | None, _ ->
    encode_record s src kind ~id ~parent ~server ~fs ~client ~op;
    inlined s

(* Publishes the partial block and encodes alongside the helper until it
   has finished; an error met on either side is raised once the helper
   has left. *)
let release s =
  match (s.helper, s.ring) with
  | Some h, Some r ->
    if s.filled > 0 then publish s r;
    Atomic.set r.release true;
    let spins = ref 0 in
    while Par.Helper.attached h do
      match work r with
      | Par.Helper.Idle ->
        Par.Helper.backoff !spins;
        incr spins
      | Par.Helper.Worked | Par.Helper.Finished -> ()
    done;
    detached s
  | _ -> s.inline <- 0

let jsonl_writer oc ~close_channel =
  let s =
    {
      oc;
      w = Json.Writer.create jsonl_buffer_size;
      tpl = no_templates;
      ring = None;
      helper = None;
      head = 0;
      filled = 0;
      limit = blocks;
      inline = 0;
    }
  in
  let closed = ref false in
  {
    name = "jsonl";
    emit = emit s;
    record =
      (fun src kind ~id ~parent ~server ~fs ~client ~op ->
        record s src kind ~id ~parent ~server ~fs ~client ~op);
    flush = (fun () -> release s);
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          match release s with
          | () ->
            Json.Writer.output oc s.w;
            if close_channel then close_out oc else flush oc
          | exception ex ->
            let bt = Printexc.get_raw_backtrace () in
            if close_channel then close_out_noerr oc;
            Printexc.raise_with_backtrace ex bt
        end);
  }

let jsonl_channel oc = jsonl_writer oc ~close_channel:false

let jsonl_file path = jsonl_writer (open_out path) ~close_channel:true

(* --- Chrome trace_event writer --- *)

(* One process per simulation; one thread per server, plus thread 0 for
   cluster-wide events (delegate rounds, membership, spans not yet on a
   server). *)
let cluster_tid = 0

let server_tid server = server + 1

let usec seconds = seconds *. 1e6

let chrome_record ?(args = []) ~name ~cat ~ph ~ts ~tid extra =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str ph);
       ("ts", Json.Num ts);
       ("pid", Json.Num 1.0);
       ("tid", Json.Num (float_of_int tid));
     ]
    @ extra
    @ (if args = [] then [] else [ ("args", Json.Obj args) ]))

let thread_name_record ~tid ~name =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int tid));
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let counter_record ~name ~ts series =
  chrome_record ~name ~cat:"delegate" ~ph:"C" ~ts ~tid:cluster_tid []
    ~args:
      (List.map
         (fun (server, value) -> (string_of_int server, Json.Num value))
         series)

let instant ?(args = []) ~name ~cat ~ts ~tid () =
  chrome_record ~args ~name ~cat ~ph:"i" ~ts ~tid [ ("s", Json.Str "t") ]

let num_int n = Json.Num (float_of_int n)

let attr_arg : Event.attr -> string * Json.t = function
  | Op op -> ("op", Json.Str op)
  | Client c -> ("client", num_int c)
  | Src s -> ("src", num_int s)
  | Flush_seconds x -> ("flush_s", Json.Num x)
  | Init_seconds x -> ("init_s", Json.Num x)
  | Replayed n -> ("replayed", num_int n)
  | Role r -> ("role", Json.Str r)
  | Round n -> ("round", num_int n)
  | Average x -> ("average", Json.Num x)
  | Inputs inputs ->
    ( "inputs",
      Json.List
        (List.map
           (fun (i : Event.round_input) ->
             Json.Obj
               [
                 ("server", num_int i.server);
                 ("mean_latency", Json.Num i.mean_latency);
                 ("max_latency", Json.Num i.max_latency);
                 ("requests", num_int i.requests);
                 ("queue_depth", num_int i.queue_depth);
               ])
           inputs) )
  | Regions regions ->
    ( "regions",
      Json.List
        (List.map
           (fun (server, measure) ->
             Json.Obj [ ("server", num_int server); ("measure", Json.Num measure) ])
           regions) )
  | Domain d -> ("domain", Json.Str d)
  | Link l -> ("link", Json.Str l)
  | Members n -> ("members", num_int n)
  | Factor x -> ("factor", Json.Num x)
  | Missing servers -> ("missing", Json.List (List.map num_int servers))
  | Survivors n -> ("survivors", num_int n)

(* A round's per-server inputs and retuned regions also draw as
   counter tracks, so queue depth and region measure plot over time. *)
let counters_of_attrs ~ts attrs =
  List.filter_map
    (function
      | Event.Inputs inputs ->
        Some
          (counter_record ~name:"queue-depth" ~ts
             (List.map
                (fun (i : Event.round_input) ->
                  (i.server, float_of_int i.queue_depth))
                inputs))
      | Event.Regions (_ :: _ as regions) ->
        Some (counter_record ~name:"region-measure" ~ts regions)
      | _ -> None)
    attrs

let records_of_event e =
  match (e : Event.t) with
  | Membership { time; server; change } ->
    let describe =
      match change with
      | Event.Failed -> "fail"
      | Event.Recovered -> "recover"
      | Event.Added _ -> "add"
      | Event.Speed_changed _ -> "set-speed"
      | Event.Decommissioned -> "decommission"
    in
    [
      instant
        ~name:(Printf.sprintf "%s:server-%d" describe server)
        ~cat:"membership" ~ts:(usec time) ~tid:cluster_tid ();
    ]
  | Rehash_round { time; trigger; checked; moved } ->
    [
      instant ~name:"rehash" ~cat:"placement" ~ts:(usec time) ~tid:cluster_tid
        ~args:
          [
            ("trigger", Json.Str trigger);
            ("checked", Json.Num (float_of_int checked));
            ("moved", Json.Num (float_of_int moved));
          ]
        ();
    ]
  | Fault { time; server; fault } ->
    let tid =
      match server with Some s -> server_tid s | None -> cluster_tid
    in
    [
      instant
        ~name:("fault:" ^ Event.fault_name fault)
        ~cat:"fault" ~ts:(usec time) ~tid ();
    ]
  | Fence { time; server; action } ->
    [
      instant ~name:("fence:" ^ action) ~cat:"fence" ~ts:(usec time)
        ~tid:(server_tid server) ();
    ]
  | Ledger_replay { time; records; torn; repaired; divergent } ->
    [
      instant ~name:"ledger-replay" ~cat:"ledger" ~ts:(usec time)
        ~tid:cluster_tid
        ~args:
          [
            ("records", Json.Num (float_of_int records));
            ("torn", Json.Num (float_of_int torn));
            ("repaired", Json.Num (float_of_int repaired));
            ("divergent", Json.Num (float_of_int divergent));
          ]
        ();
    ]
  | Invariant_violation { time; what } ->
    [
      instant ~name:"invariant-violation" ~cat:"invariant" ~ts:(usec time)
        ~tid:cluster_tid
        ~args:[ ("what", Json.Str what) ]
        ();
    ]
  (* Spans become Chrome async duration events: matching ["b"]/["e"]
     records keyed by the span id, so chrome://tracing nests them into
     flame charts instead of a wall of instants. *)
  | Span_begin { time; id; parent; name; cat; server; file_set; epoch; attrs }
    ->
    let tid =
      match server with Some s -> server_tid s | None -> cluster_tid
    in
    let args =
      (match parent with
      | Some p -> [ ("parent", Json.Num (float_of_int p)) ]
      | None -> [])
      @ (match file_set with
        | Some fs -> [ ("file_set", Json.Str fs) ]
        | None -> [])
      @ (match epoch with
        | Some e -> [ ("epoch", Json.Num (float_of_int e)) ]
        | None -> [])
      @ List.map attr_arg attrs
    in
    chrome_record ~args ~name ~cat ~ph:"b" ~ts:(usec time) ~tid
      [ ("id", Json.Str (string_of_int id)) ]
    :: counters_of_attrs ~ts:(usec time) attrs
  | Span_end { time; id; name; cat; server; outcome; attrs } ->
    let tid =
      match server with Some s -> server_tid s | None -> cluster_tid
    in
    let args =
      (match outcome with Some o -> [ ("outcome", Json.Str o) ] | None -> [])
      @ List.map attr_arg attrs
    in
    chrome_record ~args ~name ~cat ~ph:"e" ~ts:(usec time) ~tid
      [ ("id", Json.Str (string_of_int id)) ]
    :: counters_of_attrs ~ts:(usec time) attrs

let chrome_file path =
  let oc = open_out path in
  let closed = ref false in
  let first = ref true in
  let named_tids = Hashtbl.create 16 in
  let w = Json.Writer.create 1024 in
  let write_record j =
    if !first then first := false else Json.Writer.literal w ",\n";
    Json.Writer.value w j;
    Json.Writer.output oc w
  in
  let name_tid tid =
    if not (Hashtbl.mem named_tids tid) then begin
      Hashtbl.add named_tids tid ();
      let name =
        if tid = cluster_tid then "cluster" else
          Printf.sprintf "server-%d" (tid - 1)
      in
      write_record (thread_name_record ~tid ~name)
    end
  in
  output_string oc "[\n";
  make ~name:"chrome"
    (fun e ->
      List.iter
        (fun j ->
          (match Json.to_int (Json.member "tid" j) with
          | Some tid -> name_tid tid
          | None -> ());
          write_record j)
        (records_of_event e))
    ~close:(fun () ->
      if not !closed then begin
        closed := true;
        output_string oc "\n]\n";
        close_out oc
      end)
