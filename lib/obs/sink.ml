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
   buffer grows it.  The writer's number cache is this sink's own: a
   request's [time] repeats across its span begins and ends, so most
   numbers are formatted once.  A request record is written from its
   source's templates ([Record.write_jsonl]), rebuilt whenever the
   record's source differs from the last one encoded.

   Encoding moves to the helper domain ([Par.Helper], DESIGN.md section
   11) after the first [inline_events] lines since creation or a
   flush, so a run's set-up never wakes it.  [emit] and [record] then
   store the event or the record in a ring slot, and whichever side
   holds [busy] encodes the next chunk: the helper whenever lines wait,
   the caller only when the ring is full, rather than wait for a helper
   that is slow or not yet running.  The writer, the channel and the
   templates belong to the side holding [busy], and to the caller while
   no poller is attached. *)
let jsonl_buffer_size = 65536

let inline_events = 64

let ring_size = 256 (* a power of two *)

let chunk = 64

let no_source = { Record.clock = [| 0.0 |]; file_sets = [||]; ops = [||] }

(* Slot [j] holds an event when [events.(j)] is not [Ring.placeholder],
   and a request record in the other columns otherwise.  Every slot
   below [encoded] holds the placeholder. *)
type jsonl = {
  oc : out_channel;
  w : Json.Writer.t;
  events : Event.t array;
  kinds : Record.kind array;
  sources : Record.source array;
  ids : int array;
  parents : int array;
  servers : int array;
  fss : int array;
  clients : int array;
  ops : int array;
  times : float array;
  mutable tpl : Record.templates;  (* the encoder's *)
  pushed : int Atomic.t;  (* lines stored in the ring *)
  encoded : int Atomic.t;  (* lines encoded *)
  busy : bool Atomic.t;  (* a side is encoding *)
  release : bool Atomic.t;  (* finish once the ring is empty *)
  mutable error : (exn * Printexc.raw_backtrace) option;
      (* an encode or write error, set under [busy], for the caller *)
  mutable helper : Par.Helper.t option;  (* this and [inline]: the caller's *)
  mutable inline : int;  (* lines encoded here since the last flush *)
}

let end_line s =
  Json.Writer.char s.w '\n';
  if Json.Writer.length s.w >= jsonl_buffer_size then
    Json.Writer.output s.oc s.w

let encode s e =
  Event.write_jsonl s.w e;
  end_line s

let encode_record s src kind ~id ~parent ~server ~fs ~client ~op ~times ~at =
  if Record.source s.tpl != src then s.tpl <- Record.templates src;
  Record.write_jsonl s.w s.tpl kind ~id ~parent ~server ~fs ~client ~op ~times
    ~at;
  end_line s

let encode_slot s j =
  let e = s.events.(j) in
  if e != Ring.placeholder then begin
    encode s e;
    s.events.(j) <- Ring.placeholder
  end
  else
    encode_record s s.sources.(j) s.kinds.(j) ~id:s.ids.(j)
      ~parent:s.parents.(j) ~server:s.servers.(j) ~fs:s.fss.(j)
      ~client:s.clients.(j) ~op:s.ops.(j) ~times:s.times ~at:j

(* Drops the lines in slots [first, last). *)
let drop s first last =
  for i = first to last - 1 do
    s.events.(i land (ring_size - 1)) <- Ring.placeholder
  done

(* Encodes the next chunk; the caller holds [busy].  An error drops the
   chunk and is kept in [error]: [Finished] then. *)
let encode_chunk s =
  let e0 = Atomic.get s.encoded in
  let n = min chunk (Atomic.get s.pushed - e0) in
  let status =
    match
      for i = e0 to e0 + n - 1 do
        encode_slot s (i land (ring_size - 1))
      done
    with
    | () -> Par.Helper.Worked
    | exception ex ->
      s.error <- Some (ex, Printexc.get_raw_backtrace ());
      drop s e0 (e0 + n);
      Par.Helper.Finished
  in
  Atomic.set s.encoded (e0 + n);
  status

let reraise s =
  match s.error with
  | None -> ()
  | Some (ex, bt) ->
    s.error <- None;
    Printexc.raise_with_backtrace ex bt

(* Encodes the next chunk unless no line waits or the other side holds
   [busy] ([Idle]); [Finished] on an error. *)
let try_encode s =
  if
    Atomic.get s.pushed > Atomic.get s.encoded
    && Atomic.compare_and_set s.busy false true
  then begin
    let status = encode_chunk s in
    Atomic.set s.busy false;
    status
  end
  else Par.Helper.Idle

(* [release] is read before [pushed]: the caller sets it after its last
   store, so a poller that sees it also sees every line.  An error
   finishes the poller at once; the caller meets it when it finds the
   poller dropped. *)
let poll s () =
  let releasing = Atomic.get s.release in
  match try_encode s with
  | Par.Helper.Idle
    when releasing && Atomic.get s.pushed = Atomic.get s.encoded ->
    Par.Helper.Finished
  | status -> status

(* Back to encoding on the caller.  Lines an error left in the ring
   are dropped with it. *)
let detached s =
  s.helper <- None;
  s.inline <- 0;
  Atomic.set s.release false;
  drop s (Atomic.get s.encoded) (Atomic.get s.pushed);
  Atomic.set s.encoded (Atomic.get s.pushed);
  reraise s

(* The ring is full: encode chunks until a slot is free, unless the
   helper is. *)
let make_room s =
  let spins = ref 0 in
  while Atomic.get s.pushed - Atomic.get s.encoded >= ring_size do
    match try_encode s with
    | Par.Helper.Worked -> ()
    | Par.Helper.Finished -> reraise s
    | Par.Helper.Idle ->
      Par.Helper.backoff !spins;
      incr spins
  done

(* A line encoded on the caller; the [inline_events]th attaches the
   helper. *)
let inlined s =
  s.inline <- s.inline + 1;
  if s.inline = inline_events then s.helper <- Par.Helper.attach (poll s)

(* The ring slot for the next line, or -1 when it is to be encoded
   here.  [pushed] moves on once the caller has filled the slot. *)
let rec next_slot s =
  match s.helper with
  | Some h when not (Par.Helper.attached h) ->
    detached s;
    next_slot s
  | Some _ ->
    let p = Atomic.get s.pushed in
    if p - Atomic.get s.encoded >= ring_size then make_room s;
    p land (ring_size - 1)
  | None -> -1

let pushed s = Atomic.set s.pushed (Atomic.get s.pushed + 1)

let emit s e =
  let j = next_slot s in
  if j < 0 then begin
    encode s e;
    inlined s
  end
  else begin
    s.events.(j) <- e;
    pushed s
  end

let record s src kind ~id ~parent ~server ~fs ~client ~op =
  let j = next_slot s in
  if j < 0 then begin
    encode_record s src kind ~id ~parent ~server ~fs ~client ~op
      ~times:src.Record.clock ~at:0;
    inlined s
  end
  else begin
    s.kinds.(j) <- kind;
    if s.sources.(j) != src then s.sources.(j) <- src;
    s.ids.(j) <- id;
    s.parents.(j) <- parent;
    s.servers.(j) <- server;
    s.fss.(j) <- fs;
    s.clients.(j) <- client;
    s.ops.(j) <- op;
    s.times.(j) <- src.Record.clock.(0);
    pushed s
  end

(* Encodes alongside the helper until it has finished; an error met on
   either side is raised once the helper is released.  When that left
   the helper idle, its domain's exit is awaited here: the runner counts
   the flush as engine time, and the exit would otherwise land in the
   work after the run. *)
let release s =
  match s.helper with
  | None -> s.inline <- 0
  | Some h ->
    Atomic.set s.release true;
    let spins = ref 0 in
    while Par.Helper.attached h do
      match try_encode s with
      | Par.Helper.Idle ->
        Par.Helper.backoff !spins;
        incr spins
      | Par.Helper.Worked | Par.Helper.Finished -> ()
    done;
    Par.Helper.await_exit ();
    detached s

let jsonl_writer oc ~close_channel =
  let ints () = Array.make ring_size 0 in
  let s =
    {
      oc;
      w = Json.Writer.create jsonl_buffer_size;
      events = Array.make ring_size Ring.placeholder;
      kinds = Array.make ring_size Record.Request_begin;
      sources = Array.make ring_size no_source;
      ids = ints ();
      parents = ints ();
      servers = ints ();
      fss = ints ();
      clients = ints ();
      ops = ints ();
      times = Array.make ring_size 0.0;
      tpl = Record.templates no_source;
      pushed = Atomic.make 0;
      encoded = Atomic.make 0;
      busy = Atomic.make false;
      release = Atomic.make false;
      error = None;
      helper = None;
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
