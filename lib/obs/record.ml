type kind =
  | Request_begin
  | Request_end
  | Buffered_begin
  | Buffered_end
  | Queue_begin
  | Queue_end
  | Service_begin
  | Service_end

type source = {
  clock : float array;
  file_sets : string array;
  ops : string array;
}

let to_event src kind ~id ~parent ~server ~fs ~client ~op ~time =
  let span_begin name ~parent ~server attrs =
    Event.Span_begin
      {
        time;
        id;
        parent;
        name;
        cat = "request";
        server;
        file_set = Some src.file_sets.(fs);
        epoch = None;
        attrs;
      }
  in
  let span_end name =
    Event.Span_end
      {
        time;
        id;
        name;
        cat = "request";
        server = Some server;
        outcome = None;
        attrs = [];
      }
  in
  let parent = if parent = 0 then None else Some parent in
  match kind with
  | Request_begin ->
    span_begin "request" ~parent:None ~server:None
      [ Event.Client client; Event.Op src.ops.(op) ]
  | Buffered_begin -> span_begin "buffered" ~parent ~server:None []
  | Queue_begin -> span_begin "queue" ~parent ~server:(Some server) []
  | Service_begin -> span_begin "service" ~parent ~server:(Some server) []
  | Request_end -> span_end "request"
  | Buffered_end -> span_end "buffered"
  | Queue_end -> span_end "queue"
  | Service_end -> span_end "service"

(* --- Template encoding ---

   A record's line is its header literal, the time, the id and then
   fixed literals around its few numbers.  The parts that name a file
   set or an operation are quoted once per source:
   [request.(fs)] runs from the parent to the client's key of a request
   begin, [file_set.(fs)] closes a stage begin, and [op.(op)] closes a
   request begin. *)

type templates = {
  src : source;
  request : string array;
  file_set : string array;
  op : string array;
}

let quoted s =
  let w = Json.Writer.create (String.length s + 2) in
  Json.Writer.string w s;
  Json.Writer.contents w

let templates src =
  let file_sets = Array.map quoted src.file_sets in
  {
    src;
    request =
      Array.map
        (fun q ->
          {|,"parent":null,"name":"request","cat":"request","server":null,"file_set":|}
          ^ q ^ {|,"epoch":null,"attrs":{"client":|})
        file_sets;
    file_set = Array.map (fun q -> {|,"file_set":|} ^ q ^ {|,"epoch":null}|}) file_sets;
    op = Array.map (fun o -> {|,"op":|} ^ quoted o ^ "}}") src.ops;
  }

let source tpl = tpl.src

module W = Json.Writer

(* A stage begin's parent, then its name and server key. *)
let stage_begin w ~parent name_and_server =
  if parent = 0 then W.literal w {|,"parent":null|}
  else begin
    W.literal w {|,"parent":|};
    W.int w parent
  end;
  W.literal w name_and_server

let end_ w ~server name_and_server =
  W.literal w name_and_server;
  W.int w server;
  W.literal w {|,"outcome":null}|}

let write_jsonl w tpl kind ~id ~parent ~server ~fs ~client ~op ~times ~at =
  (match kind with
  | Request_begin | Buffered_begin | Queue_begin | Service_begin ->
    W.literal w {|{"type":"span_begin","time":|}
  | Request_end | Buffered_end | Queue_end | Service_end ->
    W.literal w {|{"type":"span_end","time":|});
  W.number_at w times at;
  W.literal w {|,"id":|};
  W.int w id;
  match kind with
  | Request_begin ->
    W.literal w tpl.request.(fs);
    W.int w client;
    W.literal w tpl.op.(op)
  | Buffered_begin ->
    stage_begin w ~parent {|,"name":"buffered","cat":"request","server":null|};
    W.literal w tpl.file_set.(fs)
  | Queue_begin ->
    stage_begin w ~parent {|,"name":"queue","cat":"request","server":|};
    W.int w server;
    W.literal w tpl.file_set.(fs)
  | Service_begin ->
    stage_begin w ~parent {|,"name":"service","cat":"request","server":|};
    W.int w server;
    W.literal w tpl.file_set.(fs)
  | Request_end -> end_ w ~server {|,"name":"request","cat":"request","server":|}
  | Buffered_end -> end_ w ~server {|,"name":"buffered","cat":"request","server":|}
  | Queue_end -> end_ w ~server {|,"name":"queue","cat":"request","server":|}
  | Service_end -> end_ w ~server {|,"name":"service","cat":"request","server":|}
