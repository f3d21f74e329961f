(* Reference encoders for the observability layer's direct writers.

   These are the tree encoders the library used before it wrote
   straight into its sink buffer: events become an [Obs.Json.t] tree,
   rendered with a [Printf]-based number formatter.  The tests hold the
   library's output byte-identical to them. *)

open Obs.Event
module Json = Obs.Json

(* Shortest decimal rendering that parses back to the same float; falls
   back to 17 significant digits, which is always exact. *)
let number_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Json.Num x -> Buffer.add_string buf (number_to_string x)
  | Json.Str s -> escape_string buf s
  | Json.List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Json.Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf name;
        Buffer.add_char buf ':';
        write buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- Events as trees --- *)

let num x = Json.Num x

let int n = Json.Num (float_of_int n)

let opt_int = function None -> Json.Null | Some n -> int n

let change_to_json = function
  | Failed -> Json.Obj [ ("change", Json.Str "failed") ]
  | Recovered -> Json.Obj [ ("change", Json.Str "recovered") ]
  | Added speed ->
    Json.Obj [ ("change", Json.Str "added"); ("speed", num speed) ]
  | Speed_changed speed ->
    Json.Obj [ ("change", Json.Str "speed_changed"); ("speed", num speed) ]
  | Decommissioned -> Json.Obj [ ("change", Json.Str "decommissioned") ]

let fault_to_json f =
  let fields =
    match f with
    | Delegate_crash -> []
    | Report_lost { attempt } -> [ ("attempt", int attempt) ]
    | Report_delayed { delay } -> [ ("delay", num delay) ]
    | Ledger_torn { seq } -> [ ("seq", int seq) ]
  in
  Json.Obj (("fault", Json.Str (fault_name f)) :: fields)

let input_to_json i =
  Json.Obj
    [
      ("server", int i.server);
      ("mean_latency", num i.mean_latency);
      ("max_latency", num i.max_latency);
      ("requests", int i.requests);
      ("queue_depth", int i.queue_depth);
    ]

let region_to_json (server, measure) =
  Json.Obj [ ("server", int server); ("measure", num measure) ]

let attrs_to_json attrs =
  Json.Obj
    (List.map
       (function
         | Op op -> ("op", Json.Str op)
         | Client client -> ("client", int client)
         | Src src -> ("src", int src)
         | Flush_seconds x -> ("flush_seconds", num x)
         | Init_seconds x -> ("init_seconds", num x)
         | Replayed n -> ("replayed", int n)
         | Role role -> ("role", Json.Str role)
         | Round round -> ("round", int round)
         | Average x -> ("average", num x)
         | Inputs inputs -> ("inputs", Json.List (List.map input_to_json inputs))
         | Regions regions ->
           ("regions", Json.List (List.map region_to_json regions))
         | Domain domain -> ("domain", Json.Str domain)
         | Link link -> ("link", Json.Str link)
         | Members n -> ("members", int n)
         | Factor x -> ("factor", num x)
         | Missing servers -> ("missing", Json.List (List.map int servers))
         | Survivors n -> ("survivors", int n))
       attrs)

let attrs_field attrs =
  if attrs = [] then [] else [ ("attrs", attrs_to_json attrs) ]

let event_to_json e =
  let fields =
    match e with
    | Membership { time = _; server; change } ->
      [ ("server", int server); ("membership", change_to_json change) ]
    | Rehash_round { time = _; trigger; checked; moved } ->
      [
        ("trigger", Json.Str trigger);
        ("checked", int checked);
        ("moved", int moved);
      ]
    | Fault { time = _; server; fault } ->
      [
        ("server", opt_int server);
        ("fault", fault_to_json fault);
      ]
    | Fence { time = _; server; action } ->
      [ ("server", int server); ("action", Json.Str action) ]
    | Ledger_replay { time = _; records; torn; repaired; divergent } ->
      [
        ("records", int records);
        ("torn", int torn);
        ("repaired", int repaired);
        ("divergent", int divergent);
      ]
    | Invariant_violation { time = _; what } -> [ ("what", Json.Str what) ]
    | Span_begin
        { time = _; id; parent; name; cat; server; file_set; epoch; attrs } ->
      [
        ("id", int id);
        ("parent", opt_int parent);
        ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("server", opt_int server);
        ( "file_set",
          match file_set with None -> Json.Null | Some s -> Json.Str s );
        ("epoch", opt_int epoch);
      ]
      @ attrs_field attrs
    | Span_end { time = _; id; name; cat; server; outcome; attrs } ->
      [
        ("id", int id);
        ("name", Json.Str name);
        ("cat", Json.Str cat);
        ("server", opt_int server);
        ( "outcome",
          match outcome with None -> Json.Null | Some s -> Json.Str s );
      ]
      @ attrs_field attrs
  in
  Json.Obj (("type", Json.Str (kind e)) :: ("time", num (time e)) :: fields)

(* The JSONL line the library must write for [e]. *)
let event_to_jsonl e = to_string (event_to_json e)
