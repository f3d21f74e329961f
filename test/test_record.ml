(* Request records: the template encoder writes exactly the bytes of
   [Event.write_jsonl] for the equivalent event, alone and through the
   JSONL sink's ring; the sinks that keep events rebuild what the
   request call sites emitted as spans; and a traced request stays
   within its allocation budget. *)

module R = Obs.Record

let check_int = Alcotest.(check int)
let event_t = Alcotest.testable Obs.Event.pp ( = )

let ops =
  Array.of_list (List.map Sharedfs.Request.op_name Sharedfs.Request.all_ops)

(* --- Generators --- *)

(* Names that need escaping: quotes, backslashes, newlines, other
   control bytes, and UTF-8 sequences. *)
let name_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (6, map (String.make 1) (char_range 'a' 'z'));
        (1, oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "/" ]);
        (1, map (String.make 1) (char_range '\000' '\031'));
        (1, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x92\xbe"; "\x7f" ]);
      ]
  in
  map (String.concat "") (list_size (0 -- 6) piece)

(* Integers, tiny, huge and 17-digit times. *)
let time_gen =
  let open QCheck.Gen in
  frequency
    [
      (2, map float_of_int (0 -- 1_000_000_000));
      (1, map (fun x -> x *. 1e-6) (float_bound_exclusive 1.0));
      (1, map (fun x -> 1e15 *. (1.0 +. x)) (float_bound_inclusive 1e6));
      (1, oneofl [ 0.0; 1e15; 0.1 +. 0.2; 1.0 /. 3.0; 123456.78901234567 ]);
      (3, float_bound_inclusive 4000.0);
    ]

(* Span ids and clients up to 2^40. *)
let id_gen =
  let open QCheck.Gen in
  frequency
    [ (3, 1 -- 100_000); (2, 1 -- (1 lsl 40)); (1, return (1 lsl 40)) ]

type record = {
  kind : R.kind;
  id : int;
  parent : int;
  server : int;
  fs : int;
  client : int;
  op : int;
  time : float;
}

type item = Rec of int * record  (* source index, record *) | Ev of Obs.Event.t | Flush

(* One request: its source, and the fields its records share. *)
let request_gen ~sources =
  let open QCheck.Gen in
  let* src = 0 -- (Array.length sources - 1) in
  let nfs = Array.length sources.(src).R.file_sets in
  let* id = id_gen and* fs = 0 -- (nfs - 1) and* client = id_gen
  and* op = 0 -- (Array.length ops - 1) and* server = id_gen
  and* time = time_gen in
  return
    (src, { kind = R.Request_begin; id; parent = 0; server; fs; client; op; time })

(* One request's records as the cluster writes them: its begin, a
   buffered, queue and service stage when it has them, its end. *)
let lifecycle_gen ~sources =
  let open QCheck.Gen in
  let* src, req = request_gen ~sources
  and* buffered = bool and* queued = bool and* redelivered = bool
  and* ids = list_repeat 3 id_gen and* times = list_repeat 7 time_gen in
  let time i = if i = 0 then req.time else List.nth times (i - 1) in
  let r kind ~id ~parent ~server i =
    Rec (src, { req with kind; id; parent; server; time = time i })
  in
  let stage n ~begin_ ~end_ i =
    let id = List.nth ids n in
    [
      r begin_ ~id ~parent:req.id ~server:req.server i;
      r end_ ~id ~parent:0 ~server:req.server (i + 1);
    ]
  in
  let staged = buffered || queued || redelivered in
  return
    ((r R.Request_begin ~id:req.id ~parent:0 ~server:0 0
     :: (if buffered then stage 0 ~begin_:R.Buffered_begin ~end_:R.Buffered_end 1
        else []))
    @ (if queued then stage 1 ~begin_:R.Queue_begin ~end_:R.Queue_end 3 else [])
    @ (if staged then stage 2 ~begin_:R.Service_begin ~end_:R.Service_end 5
       else [])
    @ [ r R.Request_end ~id:req.id ~parent:0 ~server:req.server 6 ])

let sources_gen =
  let open QCheck.Gen in
  let source =
    map
      (fun names ->
        { R.clock = [| 0.0 |]; file_sets = Array.of_list names; ops })
      (list_size (1 -- 4) name_gen)
  in
  map Array.of_list (list_size (1 -- 2) source)

let stream_gen =
  let open QCheck.Gen in
  let* sources = sources_gen in
  let* chunks =
    list_size (1 -- 500)
      (frequency
         [
           (8, lifecycle_gen ~sources);
           (2, map (fun e -> [ Ev e ]) Test_obs.event_gen);
           (1, return [ Flush ]);
         ])
  in
  return (sources, List.concat chunks)

let to_event sources src r =
  R.to_event sources.(src) r.kind ~id:r.id ~parent:r.parent ~server:r.server
    ~fs:r.fs ~client:r.client ~op:r.op ~time:r.time

let expected_line sources = function
  | Rec (src, r) -> Some (Obs.Event.to_jsonl (to_event sources src r))
  | Ev e -> Some (Obs.Event.to_jsonl e)
  | Flush -> None

let print_stream (sources, items) =
  String.concat "\n" (List.filter_map (expected_line sources) items)

(* --- Template encoding against Event.write_jsonl --- *)

let prop_templates_match_write_jsonl =
  QCheck.Test.make ~count:300
    ~name:"record templates write Event.write_jsonl's bytes"
    (QCheck.make ~print:print_stream stream_gen)
    (fun (sources, items) ->
      let tpls = Array.map R.templates sources in
      (* One writer for both sides, as a sink shares its number cache
         between events and records. *)
      let w = Obs.Json.Writer.create 64 in
      List.for_all
        (function
          | Rec (src, r) ->
            Obs.Json.Writer.clear w;
            R.write_jsonl w tpls.(src) r.kind ~id:r.id ~parent:r.parent
              ~server:r.server ~fs:r.fs ~client:r.client ~op:r.op
              ~times:[| r.time |] ~at:0;
            let got = Obs.Json.Writer.contents w in
            Obs.Json.Writer.clear w;
            Obs.Event.write_jsonl w (to_event sources src r);
            String.equal got (Obs.Json.Writer.contents w)
          | Ev _ | Flush -> true)
        items)

(* The same streams through the JSONL sink: records and rare events
   share its ring in order, across ring wraps, in the blocks whichever
   side encodes, across template switches between two sources, and
   across flushes that hand encoding back to the caller. *)
let prop_sink_matches_write_jsonl =
  QCheck.Test.make ~count:40
    ~name:"jsonl sink writes records as Event.write_jsonl"
    (QCheck.make ~print:print_stream stream_gen)
    (fun (sources, items) ->
      Test_obs.with_temp_file (fun path ->
          let oc = open_out_bin path in
          let sink = Obs.Sink.jsonl_channel oc in
          List.iter
            (function
              | Rec (src, r) ->
                let s = sources.(src) in
                s.R.clock.(0) <- r.time;
                sink.Obs.Sink.record s r.kind ~id:r.id ~parent:r.parent
                  ~server:r.server ~fs:r.fs ~client:r.client ~op:r.op
              | Ev e -> sink.Obs.Sink.emit e
              | Flush -> sink.Obs.Sink.flush ())
            items;
          sink.Obs.Sink.close ();
          close_out oc;
          let expected =
            String.concat ""
              (List.filter_map
                 (fun item ->
                   Option.map (fun l -> l ^ "\n") (expected_line sources item))
                 items)
          in
          String.equal expected (Test_obs.read_file path)))

(* A long burst: the emitter stores records far faster than the helper
   encodes them, so the ring fills and the emitter encodes blocks too,
   over hundreds of wraps of the ring.  Flushes every 7,777 records
   leave partial blocks, and a round's tune span larger than a block's
   writer arrives mid-burst. *)
let test_sink_burst_bytes () =
  Helper_wait.quiesce ();
  let src =
    { R.clock = [| 0.0 |]; file_sets = [| "a\"b"; "c\\d\n"; "\xc3\xa9" |]; ops }
  in
  let n = 50_000 in
  let record i =
    let kind =
      match i mod 4 with
      | 0 -> R.Request_begin
      | 1 -> R.Queue_begin
      | 2 -> R.Queue_end
      | _ -> R.Request_end
    in
    src.R.clock.(0) <- float_of_int i *. 0.0137;
    ( kind,
      Obs.Event.to_jsonl
        (R.to_event src kind ~id:(i + 1) ~parent:(i / 4) ~server:(i mod 5)
           ~fs:(i mod 3) ~client:(i * 7) ~op:(i mod 10)
           ~time:src.R.clock.(0)) )
  in
  Test_obs.with_temp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Sink.jsonl_channel oc in
      let b = Buffer.create (n * 160) in
      let big = Test_obs.tune_span ~servers:300 in
      for i = 0 to n - 1 do
        let kind, line = record i in
        Buffer.add_string b line;
        Buffer.add_char b '\n';
        sink.Obs.Sink.record src kind ~id:(i + 1) ~parent:(i / 4)
          ~server:(i mod 5) ~fs:(i mod 3) ~client:(i * 7) ~op:(i mod 10);
        if i = n / 2 then begin
          Buffer.add_string b (Obs.Event.to_jsonl big);
          Buffer.add_char b '\n';
          sink.Obs.Sink.emit big
        end;
        if i mod 7_777 = 7_776 then sink.Obs.Sink.flush ()
      done;
      sink.Obs.Sink.close ();
      close_out oc;
      Alcotest.(check bool)
        "file equals Event.write_jsonl's lines" true
        (String.equal (Buffer.contents b) (Test_obs.read_file path)))

(* Records written from a column of unboxed times allocate nothing:
   neither the time nor the writer's render of it is boxed. *)
let test_templates_allocate_nothing () =
  let src = { R.clock = [| 0.0 |]; file_sets = [| "fs-1"; "fs\"2" |]; ops } in
  let tpl = R.templates src in
  let times = Array.init 1_000 (fun i -> (float_of_int i *. 0.0137) +. 0.5) in
  let w = Obs.Json.Writer.create (1_000 * 400) in
  let write i =
    R.write_jsonl w tpl
      (if i land 1 = 0 then R.Request_begin else R.Service_end)
      ~id:(i + 1) ~parent:i ~server:(i mod 5) ~fs:(i land 1) ~client:i
      ~op:(i mod 10) ~times ~at:i
  in
  write 0;
  Obs.Json.Writer.clear w;
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    write i
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before);
  let expected = Obs.Json.Writer.create 64 in
  for i = 0 to 999 do
    let kind = if i land 1 = 0 then R.Request_begin else R.Service_end in
    Obs.Event.write_jsonl expected
      (R.to_event src kind ~id:(i + 1) ~parent:i ~server:(i mod 5)
         ~fs:(i land 1) ~client:i ~op:(i mod 10) ~time:times.(i))
  done;
  Alcotest.(check string)
    "Event.write_jsonl's bytes"
    (Obs.Json.Writer.contents expected)
    (Obs.Json.Writer.contents w)

(* --- The Ring sink rebuilds the call sites' events --- *)

(* One request through the typed entry points, and through [Span.begin_]
   and [Span.end_] as the cluster's request call sites called them, with
   the same times: a staged request closes its queue stage (a no-op
   when it has none) and writes a service stage; an unstaged one ends
   its service stage of [Span.none]. *)
let drive_typed rq ~clock r ~buffered ~queued ~staged =
  let at i = clock.(0) <- r.time +. float_of_int i in
  let module S = Obs.Span.Request in
  at 0;
  let span = S.begin_ rq ~fs:r.fs ~client:r.client ~op:r.op in
  if buffered then begin
    at 1;
    let b = S.buffered_begin rq ~parent:span ~fs:r.fs in
    at 2;
    S.buffered_end rq ~id:b ~server:r.server
  end;
  at 3;
  let q =
    if queued then S.queue_begin rq ~parent:span ~server:r.server ~fs:r.fs
    else Obs.Span.none
  in
  at 4;
  let s =
    if staged then begin
      S.queue_end rq ~id:q ~server:r.server;
      S.service_begin rq ~parent:span ~server:r.server ~fs:r.fs
    end
    else Obs.Span.none
  in
  at 5;
  S.service_end rq ~id:s ~server:r.server;
  S.end_ rq ~id:span ~server:r.server

let drive_spans ctx (source : R.source) r ~buffered ~queued ~staged =
  let time i = r.time +. float_of_int i in
  let file_set = source.R.file_sets.(r.fs) and server = r.server in
  let span =
    Obs.Span.begin_ ctx ~time:(time 0) ~name:"request" ~cat:"request"
      ~file_set
      ~attrs:[ Obs.Event.Client r.client; Obs.Event.Op source.R.ops.(r.op) ]
      ()
  in
  if buffered then begin
    let b =
      Obs.Span.begin_ ctx ~time:(time 1) ~parent:span ~name:"buffered"
        ~cat:"request" ~file_set ()
    in
    Obs.Span.end_ ctx ~time:(time 2) ~id:b ~name:"buffered" ~cat:"request"
      ~server ()
  end;
  let q =
    if queued then
      Obs.Span.begin_ ctx ~time:(time 3) ~parent:span ~name:"queue"
        ~cat:"request" ~server ~file_set ()
    else Obs.Span.none
  in
  let s =
    if staged then begin
      Obs.Span.end_ ctx ~time:(time 4) ~id:q ~name:"queue" ~cat:"request"
        ~server ();
      Obs.Span.begin_ ctx ~time:(time 4) ~parent:span ~name:"service"
        ~cat:"request" ~server ~file_set ()
    end
    else Obs.Span.none
  in
  Obs.Span.end_ ctx ~time:(time 5) ~id:s ~name:"service" ~cat:"request"
    ~server ();
  Obs.Span.end_ ctx ~time:(time 5) ~id:span ~name:"request" ~cat:"request"
    ~server ()

let prop_ring_rebuilds_call_site_events =
  let gen =
    let open QCheck.Gen in
    let* sources = sources_gen in
    let* requests =
      list_size (1 -- 40)
        (let* req = request_gen ~sources and* b = bool and* q = bool
         and* r = bool in
         return (req, b, q, q || b || r))
    in
    return (sources, requests)
  in
  QCheck.Test.make ~count:200
    ~name:"ring sink rebuilds the request call sites' events"
    (QCheck.make gen)
    (fun (sources, requests) ->
      let ring () = Obs.Sink.Ring.create ~capacity:10_000 in
      let typed_ring = ring () and spans_ring = ring () in
      let typed = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink typed_ring ] ()
      and spans = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink spans_ring ] () in
      let clock = [| 0.0 |] in
      let rqs =
        Array.map
          (fun (s : R.source) ->
            Obs.Span.Request.create typed ~clock ~file_sets:s.R.file_sets
              ~ops:s.R.ops)
          sources
      in
      List.iter
        (fun ((src, r), buffered, queued, staged) ->
          drive_typed rqs.(src) ~clock r ~buffered ~queued ~staged;
          drive_spans spans sources.(src) r ~buffered ~queued ~staged)
        requests;
      Obs.Sink.Ring.contents typed_ring = Obs.Sink.Ring.contents spans_ring)

let test_untraced_requests_record_nothing () =
  let rq =
    Obs.Span.Request.create Obs.Ctx.null ~clock:[| 1.0 |]
      ~file_sets:[| "fs" |] ~ops
  in
  check_int "no span without sinks" Obs.Span.none
    (Obs.Span.Request.begin_ rq ~fs:0 ~client:1 ~op:0);
  let ring = Obs.Sink.Ring.create ~capacity:8 in
  let ctx = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let rq = Obs.Span.Request.create ctx ~clock:[| 2.0 |] ~file_sets:[| "fs" |] ~ops in
  Obs.Span.Request.service_end rq ~id:Obs.Span.none ~server:3;
  let span = Obs.Span.Request.begin_ rq ~fs:0 ~client:1 ~op:2 in
  Alcotest.(check (list event_t))
    "an end of none records nothing; a begin its span"
    [
      Obs.Event.Span_begin
        {
          time = 2.0;
          id = span;
          parent = None;
          name = "request";
          cat = "request";
          server = None;
          file_set = Some "fs";
          epoch = None;
          attrs = [ Obs.Event.Client 1; Obs.Event.Op ops.(2) ];
        };
    ]
    (Obs.Sink.Ring.contents ring)

(* --- The allocation gate --- *)

(* The benchmark's observed shape: the figure-6 stream at 8,000
   requests, ANU, traced to a JSONL sink on /dev/null with metrics and
   telemetry.  Minor words are the engine domain's own: about 31.8 per
   request where the helper encodes, 31.0 where everything is inline. *)
let test_traced_request_allocation () =
  Helper_wait.quiesce ();
  let oc = open_out_bin "/dev/null" in
  let obs =
    Obs.Ctx.create
      ~sinks:[ Obs.Sink.jsonl_channel oc ]
      ~metrics:(Obs.Metrics.create ()) ~telemetry:(Obs.Telemetry.create ()) ()
  in
  let stream = Experiments.Figures.dfs_stream ~requests:8_000 in
  let run () =
    Experiments.Runner.run_stream Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~stream ~obs ()
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let r = run () in
  let words = Gc.minor_words () -. before in
  Obs.Ctx.close obs;
  close_out oc;
  let per_request = words /. float_of_int r.Experiments.Runner.submitted in
  check_int "every request served" r.Experiments.Runner.submitted
    r.Experiments.Runner.completed;
  if per_request > 33.0 then
    Alcotest.failf "%.1f minor words per traced request, budget 33" per_request

let suite =
  [
    QCheck_alcotest.to_alcotest prop_templates_match_write_jsonl;
    QCheck_alcotest.to_alcotest prop_sink_matches_write_jsonl;
    Alcotest.test_case "jsonl sink: a burst of records" `Quick
      test_sink_burst_bytes;
    Alcotest.test_case "record templates allocate nothing" `Quick
      test_templates_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_ring_rebuilds_call_site_events;
    Alcotest.test_case "untraced requests record nothing" `Quick
      test_untraced_requests_record_nothing;
    Alcotest.test_case "traced request allocation budget" `Quick
      test_traced_request_allocation;
  ]
