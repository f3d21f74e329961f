type membership_change =
  | Failed
  | Recovered
  | Added of float
  | Speed_changed of float
  | Decommissioned

type fault_kind =
  | Delegate_crash
  | Report_lost of { attempt : int }
  | Report_delayed of { delay : float }
  | Ledger_torn of { seq : int }

type round_input = {
  server : int;
  mean_latency : float;
  max_latency : float;
  requests : int;
  queue_depth : int;
}

type attr =
  | Op of string
  | Client of int
  | Src of int
  | Flush_seconds of float
  | Init_seconds of float
  | Replayed of int
  | Role of string
  | Round of int
  | Average of float
  | Inputs of round_input list
  | Regions of (int * float) list
  | Domain of string
  | Link of string
  | Members of int
  | Factor of float
  | Missing of int list
  | Survivors of int

type t =
  | Membership of { time : float; server : int; change : membership_change }
  | Rehash_round of {
      time : float;
      trigger : string;
      checked : int;
      moved : int;
    }
  | Fault of { time : float; server : int option; fault : fault_kind }
  | Fence of { time : float; server : int; action : string }
  | Ledger_replay of {
      time : float;
      records : int;
      torn : int;
      repaired : int;
      divergent : int;
    }
  | Invariant_violation of { time : float; what : string }
  | Span_begin of {
      time : float;
      id : int;
      parent : int option;
      name : string;
      cat : string;
      server : int option;
      file_set : string option;
      epoch : int option;
      attrs : attr list;
    }
  | Span_end of {
      time : float;
      id : int;
      name : string;
      cat : string;
      server : int option;
      outcome : string option;
      attrs : attr list;
    }

let fault_name = function
  | Delegate_crash -> "delegate_crash"
  | Report_lost _ -> "report_lost"
  | Report_delayed _ -> "report_delayed"
  | Ledger_torn _ -> "ledger_torn"

(* The dots make the derived counters of domain faults come out under
   a shared [fault.domain.] prefix. *)
let window_edge ~name ~domain ~closing =
  match (name, domain, closing) with
  | "crash", false, false -> "server_crash"
  | "crash", false, true -> "server_recover"
  | "crash", true, false -> "domain.crash"
  | "crash", true, true -> "domain.recover"
  | "partition", false, false -> "partition_cut"
  | "partition", false, true -> "partition_healed"
  | "partition", true, false -> "domain.partition_cut"
  | "partition", true, true -> "domain.partition_healed"
  | "disk-stall", _, false -> "disk_stall_start"
  | "disk-stall", _, true -> "disk_stall_end"
  | _ -> name

let time = function
  | Membership { time; _ }
  | Rehash_round { time; _ }
  | Fault { time; _ }
  | Fence { time; _ }
  | Ledger_replay { time; _ }
  | Invariant_violation { time; _ }
  | Span_begin { time; _ }
  | Span_end { time; _ } -> time

let kind = function
  | Membership _ -> "membership"
  | Rehash_round _ -> "rehash_round"
  | Fault _ -> "fault"
  | Fence _ -> "fence"
  | Ledger_replay _ -> "ledger_replay"
  | Invariant_violation _ -> "invariant_violation"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"

(* --- JSON encoding ---

   Written straight into the caller's buffer: field order, escaping and
   number rendering match [Json.to_string] of the equivalent object
   tree byte for byte (the test suite keeps that tree encoder as its
   oracle).  Helpers take the buffer and memo as arguments rather than
   closing over them, so an event allocates nothing beyond numbers
   outside [Json]'s exact renderer range. *)

let add = Buffer.add_string

(* One field each; [key] is the literal that precedes the value, e.g.
   [,"name":]. *)
let str buf key s =
  add buf key;
  Json.add_string buf s

let int m buf key n =
  add buf key;
  Json.add_int m buf n

let num m buf key x =
  add buf key;
  Json.add_number m buf x

let opt_int m buf key = function
  | None ->
    add buf key;
    add buf "null"
  | Some n -> int m buf key n

let opt_str buf key = function
  | None ->
    add buf key;
    add buf "null"
  | Some s -> str buf key s

let write_change m buf = function
  | Failed -> add buf {|{"change":"failed"}|}
  | Recovered -> add buf {|{"change":"recovered"}|}
  | Added speed ->
    num m buf {|{"change":"added","speed":|} speed;
    Buffer.add_char buf '}'
  | Speed_changed speed ->
    num m buf {|{"change":"speed_changed","speed":|} speed;
    Buffer.add_char buf '}'
  | Decommissioned -> add buf {|{"change":"decommissioned"}|}

let write_fault m buf f =
  add buf {|{"fault":"|};
  add buf (fault_name f);
  Buffer.add_char buf '"';
  (match f with
  | Delegate_crash -> ()
  | Report_lost { attempt } -> int m buf {|,"attempt":|} attempt
  | Report_delayed { delay } -> num m buf {|,"delay":|} delay
  | Ledger_torn { seq } -> int m buf {|,"seq":|} seq);
  Buffer.add_char buf '}'

let rec write_inputs m buf sep = function
  | [] -> ()
  | i :: rest ->
    if sep then Buffer.add_char buf ',';
    int m buf {|{"server":|} i.server;
    num m buf {|,"mean_latency":|} i.mean_latency;
    num m buf {|,"max_latency":|} i.max_latency;
    int m buf {|,"requests":|} i.requests;
    int m buf {|,"queue_depth":|} i.queue_depth;
    Buffer.add_char buf '}';
    write_inputs m buf true rest

let rec write_regions m buf sep = function
  | [] -> ()
  | (server, measure) :: rest ->
    if sep then Buffer.add_char buf ',';
    int m buf {|{"server":|} server;
    num m buf {|,"measure":|} measure;
    Buffer.add_char buf '}';
    write_regions m buf true rest

let rec write_ints m buf sep = function
  | [] -> ()
  | n :: rest ->
    if sep then Buffer.add_char buf ',';
    Json.add_int m buf n;
    write_ints m buf true rest

(* The ["attrs"] object, one member per attribute in list order; an
   empty list writes nothing at all. *)
let rec write_attrs m buf sep = function
  | [] -> if sep then Buffer.add_char buf '}'
  | a :: rest ->
    add buf (if sep then "," else {|,"attrs":{|});
    (match a with
    | Op op -> str buf {|"op":|} op
    | Client client -> int m buf {|"client":|} client
    | Src src -> int m buf {|"src":|} src
    | Flush_seconds x -> num m buf {|"flush_seconds":|} x
    | Init_seconds x -> num m buf {|"init_seconds":|} x
    | Replayed n -> int m buf {|"replayed":|} n
    | Role role -> str buf {|"role":|} role
    | Round round -> int m buf {|"round":|} round
    | Average x -> num m buf {|"average":|} x
    | Inputs inputs ->
      add buf {|"inputs":[|};
      write_inputs m buf false inputs;
      Buffer.add_char buf ']'
    | Regions regions ->
      add buf {|"regions":[|};
      write_regions m buf false regions;
      Buffer.add_char buf ']'
    | Domain domain -> str buf {|"domain":|} domain
    | Link link -> str buf {|"link":|} link
    | Members n -> int m buf {|"members":|} n
    | Factor x -> num m buf {|"factor":|} x
    | Missing servers ->
      add buf {|"missing":[|};
      write_ints m buf false servers;
      Buffer.add_char buf ']'
    | Survivors n -> int m buf {|"survivors":|} n);
    write_attrs m buf true rest

let write_fields m buf = function
  | Membership { time = _; server; change } ->
    int m buf {|,"server":|} server;
    add buf {|,"membership":|};
    write_change m buf change
  | Rehash_round { time = _; trigger; checked; moved } ->
    str buf {|,"trigger":|} trigger;
    int m buf {|,"checked":|} checked;
    int m buf {|,"moved":|} moved
  | Fault { time = _; server; fault } ->
    opt_int m buf {|,"server":|} server;
    add buf {|,"fault":|};
    write_fault m buf fault
  | Fence { time = _; server; action } ->
    int m buf {|,"server":|} server;
    str buf {|,"action":|} action
  | Ledger_replay { time = _; records; torn; repaired; divergent } ->
    int m buf {|,"records":|} records;
    int m buf {|,"torn":|} torn;
    int m buf {|,"repaired":|} repaired;
    int m buf {|,"divergent":|} divergent
  | Invariant_violation { time = _; what } ->
    str buf {|,"what":|} what
  | Span_begin
      { time = _; id; parent; name; cat; server; file_set; epoch; attrs } ->
    int m buf {|,"id":|} id;
    opt_int m buf {|,"parent":|} parent;
    str buf {|,"name":|} name;
    str buf {|,"cat":|} cat;
    opt_int m buf {|,"server":|} server;
    opt_str buf {|,"file_set":|} file_set;
    opt_int m buf {|,"epoch":|} epoch;
    write_attrs m buf false attrs
  | Span_end { time = _; id; name; cat; server; outcome; attrs } ->
    int m buf {|,"id":|} id;
    str buf {|,"name":|} name;
    str buf {|,"cat":|} cat;
    opt_int m buf {|,"server":|} server;
    opt_str buf {|,"outcome":|} outcome;
    write_attrs m buf false attrs

let write_jsonl ?memo buf e =
  let m = match memo with Some m -> m | None -> Json.memo () in
  add buf {|{"type":"|};
  add buf (kind e);
  add buf {|","time":|};
  Json.add_number m buf (time e);
  write_fields m buf e;
  Buffer.add_char buf '}'

(* --- JSON decoding --- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* A float must be finite: the parser reads 1e400 as infinity, which
   no writer produces and every consumer would silently mis-sum. *)
let finite what name = function
  | Some x when Float.is_finite x -> Ok x
  | Some _ -> Error (Printf.sprintf "non-finite float %s %S" what name)
  | None -> Error (Printf.sprintf "missing or invalid float %s %S" what name)

let field_float j name =
  finite "field" name (Json.to_float (Json.member name j))

let field_int j name =
  match Json.to_int (Json.member name j) with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing or invalid int field %S" name)

let field_str j name =
  match Json.to_str (Json.member name j) with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or invalid string field %S" name)

let field_opt_int j name =
  match Json.member name j with
  | Json.Null -> Ok None
  | other -> (
    match Json.to_int other with
    | Some n -> Ok (Some n)
    | None -> Error (Printf.sprintf "invalid optional int field %S" name))

let field_opt_str j name =
  match Json.member name j with
  | Json.Null -> Ok None
  | other -> (
    match Json.to_str other with
    | Some s -> Ok (Some s)
    | None -> Error (Printf.sprintf "invalid optional string field %S" name))

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let input_of_json j =
  let* server = field_int j "server" in
  let* mean_latency = field_float j "mean_latency" in
  let* max_latency = field_float j "max_latency" in
  let* requests = field_int j "requests" in
  let* queue_depth = field_int j "queue_depth" in
  Ok { server; mean_latency; max_latency; requests; queue_depth }

let region_of_json j =
  let* server = field_int j "server" in
  let* measure = field_float j "measure" in
  Ok (server, measure)

let attr_of_json (key, v) =
  let str make =
    match Json.to_str v with
    | Some s -> Ok (make s)
    | None -> Error (Printf.sprintf "invalid string attribute %S" key)
  in
  let int make =
    match Json.to_int v with
    | Some n -> Ok (make n)
    | None -> Error (Printf.sprintf "invalid int attribute %S" key)
  in
  let float make =
    let* x = finite "attribute" key (Json.to_float v) in
    Ok (make x)
  in
  let list f make =
    match Json.to_list v with
    | Some items ->
      let* xs = map_result f items in
      Ok (make xs)
    | None -> Error (Printf.sprintf "invalid list attribute %S" key)
  in
  match key with
  | "op" -> str (fun s -> Op s)
  | "client" -> int (fun n -> Client n)
  | "src" -> int (fun n -> Src n)
  | "flush_seconds" -> float (fun x -> Flush_seconds x)
  | "init_seconds" -> float (fun x -> Init_seconds x)
  | "replayed" -> int (fun n -> Replayed n)
  | "role" -> str (fun s -> Role s)
  | "round" -> int (fun n -> Round n)
  | "average" -> float (fun x -> Average x)
  | "inputs" -> list input_of_json (fun l -> Inputs l)
  | "regions" -> list region_of_json (fun l -> Regions l)
  | "domain" -> str (fun s -> Domain s)
  | "link" -> str (fun s -> Link s)
  | "members" -> int (fun n -> Members n)
  | "factor" -> float (fun x -> Factor x)
  | "missing" ->
    list
      (fun item ->
        match Json.to_int item with
        | Some n -> Ok n
        | None -> Error "invalid entry in attribute \"missing\"")
      (fun l -> Missing l)
  | "survivors" -> int (fun n -> Survivors n)
  | other -> Error (Printf.sprintf "unknown span attribute %S" other)

let field_attrs j =
  match Json.member "attrs" j with
  | Json.Null -> Ok []
  | Json.Obj members -> map_result attr_of_json members
  | _ -> Error "invalid field \"attrs\""

let change_of_json j =
  let* tag = field_str j "change" in
  match tag with
  | "failed" -> Ok Failed
  | "recovered" -> Ok Recovered
  | "added" ->
    let* speed = field_float j "speed" in
    Ok (Added speed)
  | "speed_changed" ->
    let* speed = field_float j "speed" in
    Ok (Speed_changed speed)
  | "decommissioned" -> Ok Decommissioned
  | other -> Error (Printf.sprintf "unknown membership change %S" other)

let fault_of_json j =
  let* tag = field_str j "fault" in
  match tag with
  | "delegate_crash" -> Ok Delegate_crash
  | "report_lost" ->
    let* attempt = field_int j "attempt" in
    Ok (Report_lost { attempt })
  | "report_delayed" ->
    let* delay = field_float j "delay" in
    Ok (Report_delayed { delay })
  | "ledger_torn" ->
    let* seq = field_int j "seq" in
    Ok (Ledger_torn { seq })
  | other -> Error (Printf.sprintf "unknown fault kind %S" other)

let of_json j =
  let* kind = field_str j "type" in
  let* time = field_float j "time" in
  match kind with
  | "membership" ->
    let* server = field_int j "server" in
    let* change = change_of_json (Json.member "membership" j) in
    Ok (Membership { time; server; change })
  | "rehash_round" ->
    let* trigger = field_str j "trigger" in
    let* checked = field_int j "checked" in
    let* moved = field_int j "moved" in
    Ok (Rehash_round { time; trigger; checked; moved })
  | "fault" ->
    let* server = field_opt_int j "server" in
    let* fault = fault_of_json (Json.member "fault" j) in
    Ok (Fault { time; server; fault })
  | "fence" ->
    let* server = field_int j "server" in
    let* action = field_str j "action" in
    Ok (Fence { time; server; action })
  | "ledger_replay" ->
    let* records = field_int j "records" in
    let* torn = field_int j "torn" in
    let* repaired = field_int j "repaired" in
    let* divergent = field_int j "divergent" in
    Ok (Ledger_replay { time; records; torn; repaired; divergent })
  | "invariant_violation" ->
    let* what = field_str j "what" in
    Ok (Invariant_violation { time; what })
  | "span_begin" ->
    let* id = field_int j "id" in
    let* parent = field_opt_int j "parent" in
    let* name = field_str j "name" in
    let* cat = field_str j "cat" in
    let* server = field_opt_int j "server" in
    let* file_set = field_opt_str j "file_set" in
    let* epoch = field_opt_int j "epoch" in
    let* attrs = field_attrs j in
    Ok
      (Span_begin
         { time; id; parent; name; cat; server; file_set; epoch; attrs })
  | "span_end" ->
    let* id = field_int j "id" in
    let* name = field_str j "name" in
    let* cat = field_str j "cat" in
    let* server = field_opt_int j "server" in
    let* outcome = field_opt_str j "outcome" in
    let* attrs = field_attrs j in
    Ok (Span_end { time; id; name; cat; server; outcome; attrs })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let to_jsonl e =
  let buf = Buffer.create 256 in
  write_jsonl buf e;
  Buffer.contents buf

let of_jsonl line =
  let* j = Json.of_string line in
  of_json j

let pp ppf e = Format.pp_print_string ppf (to_jsonl e)
