type t = {
  name : string;
  emit : Event.t -> unit;
  close : unit -> unit;
}

let null = { name = "null"; emit = (fun _ -> ()); close = (fun () -> ()) }

module Ring = struct
  type ring = {
    slots : Event.t option array;
    mutable next : int;  (* insertion index *)
    mutable stored : int;
    mutable dropped : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Sink.Ring.create: capacity must be > 0";
    { slots = Array.make capacity None; next = 0; stored = 0; dropped = 0 }

  let push r e =
    let capacity = Array.length r.slots in
    if r.stored = capacity then r.dropped <- r.dropped + 1
    else r.stored <- r.stored + 1;
    r.slots.(r.next) <- Some e;
    r.next <- (r.next + 1) mod capacity

  (* Dropped events are silent data loss for forensics; surface the
     count once, at close, so a truncated trace never goes unnoticed. *)
  let sink r =
    {
      name = "ring";
      emit = push r;
      close =
        (fun () ->
          if r.dropped > 0 then
            Printf.eprintf
              "obs: ring sink dropped %d event(s) (capacity %d)\n%!" r.dropped
              (Array.length r.slots));
    }

  let length r = r.stored

  let dropped r = r.dropped

  let contents r =
    let capacity = Array.length r.slots in
    let oldest = (r.next - r.stored + capacity) mod capacity in
    List.init r.stored (fun i ->
        match r.slots.((oldest + i) mod capacity) with
        | Some e -> e
        | None -> assert false)

  let clear r =
    Array.fill r.slots 0 (Array.length r.slots) None;
    r.next <- 0;
    r.stored <- 0;
    r.dropped <- 0
end

(* Encode each event straight into a buffer and hand whole lines to
   the channel in ~64 KiB batches: per-event [output_string] calls and
   per-event strings dominate traced-run wall time, which distorts
   exactly the timings a trace is meant to capture.  The buffer drains
   on overflow and on close, so a closed sink has always written every
   event.  The number memo is this writer's own state: a request's
   [time] repeats across its span begins and ends, so most
   numbers are formatted once. *)
let jsonl_buffer_size = 65536

let jsonl_writer oc ~close_channel =
  let closed = ref false in
  let buf = Buffer.create jsonl_buffer_size in
  (* Passed on as [?memo], so no option is built per event. *)
  let memo = Some (Json.memo ()) in
  let drain () =
    if Buffer.length buf > 0 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  {
    name = "jsonl";
    emit =
      (fun e ->
        Event.write_jsonl ?memo buf e;
        Buffer.add_char buf '\n';
        if Buffer.length buf >= jsonl_buffer_size then drain ());
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          drain ();
          if close_channel then close_out oc else flush oc
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

let records_of_event e =
  match (e : Event.t) with
  | Move_start { time; file_set; src; dst; flush_seconds; init_seconds } ->
    [
      chrome_record ~name:("move:" ^ file_set) ~cat:"move" ~ph:"X"
        ~ts:(usec time) ~tid:(server_tid dst)
        [ ("dur", Json.Num (usec (flush_seconds +. init_seconds))) ]
        ~args:
          [
            ( "src",
              match src with
              | Some s -> Json.Num (float_of_int s)
              | None -> Json.Null );
            ("flush_s", Json.Num flush_seconds);
            ("init_s", Json.Num init_seconds);
          ];
    ]
  | Move_end { time; file_set; dst; replayed } ->
    [
      instant ~name:("move-end:" ^ file_set) ~cat:"move" ~ts:(usec time)
        ~tid:(server_tid dst)
        ~args:[ ("replayed", Json.Num (float_of_int replayed)) ]
        ();
    ]
  | Delegate_round { time; round; delegate; average; inputs; regions } ->
    let ts = usec time in
    instant ~name:"delegate-round" ~cat:"delegate" ~ts ~tid:cluster_tid
      ~args:
        [
          ("round", Json.Num (float_of_int round));
          ( "delegate",
            match delegate with
            | Some d -> Json.Num (float_of_int d)
            | None -> Json.Null );
          ("average", Json.Num average);
        ]
      ()
    :: counter_record ~name:"queue-depth" ~ts
         (List.map
            (fun (i : Event.round_input) ->
              (i.server, float_of_int i.queue_depth))
            inputs)
    ::
    (if regions = [] then []
     else [ counter_record ~name:"region-measure" ~ts regions ])
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
  | Fault { time; server; file_set; fault } ->
    let tid =
      match server with Some s -> server_tid s | None -> cluster_tid
    in
    let args =
      match file_set with
      | Some fs -> [ ("file_set", Json.Str fs) ]
      | None -> []
    in
    [
      instant
        ~name:("fault:" ^ Event.fault_name fault)
        ~cat:"fault" ~ts:(usec time) ~tid ~args ();
    ]
  | Round_degraded { time; round; missing; survivors; skipped } ->
    [
      instant
        ~name:(if skipped then "round-skipped" else "round-degraded")
        ~cat:"fault" ~ts:(usec time) ~tid:cluster_tid
        ~args:
          [
            ("round", Json.Num (float_of_int round));
            ( "missing",
              Json.List
                (List.map (fun s -> Json.Num (float_of_int s)) missing) );
            ("survivors", Json.Num (float_of_int survivors));
          ]
        ();
    ]
  | Fence { time; server; action } ->
    [
      instant ~name:("fence:" ^ action) ~cat:"fence" ~ts:(usec time)
        ~tid:(server_tid server) ();
    ]
  | Partition { time; server; link; healed } ->
    [
      instant
        ~name:
          (Printf.sprintf "%s:%s" (if healed then "heal" else "partition") link)
        ~cat:"fault" ~ts:(usec time) ~tid:(server_tid server) ();
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
      @ List.map
          (function
            | Event.Op op -> ("op", Json.Str op)
            | Event.Client c -> ("client", Json.Num (float_of_int c)))
          attrs
    in
    [
      chrome_record ~args ~name ~cat ~ph:"b" ~ts:(usec time) ~tid
        [ ("id", Json.Str (string_of_int id)) ];
    ]
  | Span_end { time; id; name; cat; server; outcome } ->
    let tid =
      match server with Some s -> server_tid s | None -> cluster_tid
    in
    let args =
      match outcome with Some o -> [ ("outcome", Json.Str o) ] | None -> []
    in
    [
      chrome_record ~args ~name ~cat ~ph:"e" ~ts:(usec time) ~tid
        [ ("id", Json.Str (string_of_int id)) ];
    ]

let chrome_writer oc ~close_channel =
  let closed = ref false in
  let first = ref true in
  let named_tids = Hashtbl.create 16 in
  let write_record j =
    if !first then first := false else output_string oc ",\n";
    output_string oc (Json.to_string j)
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
  {
    name = "chrome";
    emit =
      (fun e ->
        List.iter
          (fun j ->
            (match Json.to_int (Json.member "tid" j) with
            | Some tid -> name_tid tid
            | None -> ());
            write_record j)
          (records_of_event e));
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          output_string oc "\n]\n";
          if close_channel then close_out oc else flush oc
        end);
  }

let chrome_channel oc = chrome_writer oc ~close_channel:false

let chrome_file path = chrome_writer (open_out path) ~close_channel:true
