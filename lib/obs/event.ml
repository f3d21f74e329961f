type membership_change =
  | Failed
  | Recovered
  | Added of float
  | Speed_changed of float
  | Decommissioned

type fault_kind =
  | Server_crash
  | Server_recover
  | Delegate_crash
  | Report_lost of { attempt : int }
  | Report_delayed of { delay : float }
  | Move_interrupted of { role : string }
  | Disk_stall_start of { factor : float; duration : float }
  | Disk_stall_end
  | Partition_cut of { link : string }
  | Partition_healed of { link : string }
  | Ledger_torn of { seq : int }
  | Domain_crash of { domain : string; members : int }
  | Domain_recover of { domain : string; members : int }
  | Domain_partition_cut of { domain : string; link : string; members : int }
  | Domain_partition_healed of {
      domain : string;
      link : string;
      members : int;
    }

type round_input = {
  server : int;
  mean_latency : float;
  max_latency : float;
  requests : int;
  queue_depth : int;
}

type attr = Op of string | Client of int

type t =
  | Move_start of {
      time : float;
      file_set : string;
      src : int option;
      dst : int;
      flush_seconds : float;
      init_seconds : float;
    }
  | Move_end of { time : float; file_set : string; dst : int; replayed : int }
  | Delegate_round of {
      time : float;
      round : int;
      delegate : int option;
      average : float;
      inputs : round_input list;
      regions : (int * float) list;
    }
  | Membership of { time : float; server : int; change : membership_change }
  | Rehash_round of {
      time : float;
      trigger : string;
      checked : int;
      moved : int;
    }
  | Fault of {
      time : float;
      server : int option;
      file_set : string option;
      fault : fault_kind;
    }
  | Round_degraded of {
      time : float;
      round : int;
      missing : int list;
      survivors : int;
      skipped : bool;
    }
  | Fence of { time : float; server : int; action : string }
  | Partition of { time : float; server : int; link : string; healed : bool }
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
    }

let fault_name = function
  | Server_crash -> "server_crash"
  | Server_recover -> "server_recover"
  | Delegate_crash -> "delegate_crash"
  | Report_lost _ -> "report_lost"
  | Report_delayed _ -> "report_delayed"
  | Move_interrupted _ -> "move_interrupted"
  | Disk_stall_start _ -> "disk_stall_start"
  | Disk_stall_end -> "disk_stall_end"
  | Partition_cut _ -> "partition_cut"
  | Partition_healed _ -> "partition_healed"
  | Ledger_torn _ -> "ledger_torn"
  (* The dots make the derived counters come out under a shared
     [fault.domain.] prefix. *)
  | Domain_crash _ -> "domain.crash"
  | Domain_recover _ -> "domain.recover"
  | Domain_partition_cut _ -> "domain.partition_cut"
  | Domain_partition_healed _ -> "domain.partition_healed"

let time = function
  | Move_start { time; _ }
  | Move_end { time; _ }
  | Delegate_round { time; _ }
  | Membership { time; _ }
  | Rehash_round { time; _ }
  | Fault { time; _ }
  | Round_degraded { time; _ }
  | Fence { time; _ }
  | Partition { time; _ }
  | Ledger_replay { time; _ }
  | Invariant_violation { time; _ }
  | Span_begin { time; _ }
  | Span_end { time; _ } -> time

let kind = function
  | Move_start _ -> "move_start"
  | Move_end _ -> "move_end"
  | Delegate_round _ -> "delegate_round"
  | Membership _ -> "membership"
  | Rehash_round _ -> "rehash_round"
  | Fault _ -> "fault"
  | Round_degraded _ -> "round_degraded"
  | Fence _ -> "fence"
  | Partition _ -> "partition"
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
  | Server_crash | Server_recover | Delegate_crash | Disk_stall_end -> ()
  | Report_lost { attempt } -> int m buf {|,"attempt":|} attempt
  | Report_delayed { delay } -> num m buf {|,"delay":|} delay
  | Move_interrupted { role } -> str buf {|,"role":|} role
  | Disk_stall_start { factor; duration } ->
    num m buf {|,"factor":|} factor;
    num m buf {|,"duration":|} duration
  | Partition_cut { link } | Partition_healed { link } ->
    str buf {|,"link":|} link
  | Ledger_torn { seq } -> int m buf {|,"seq":|} seq
  | Domain_crash { domain; members } | Domain_recover { domain; members } ->
    str buf {|,"domain":|} domain;
    int m buf {|,"members":|} members
  | Domain_partition_cut { domain; link; members }
  | Domain_partition_healed { domain; link; members } ->
    str buf {|,"domain":|} domain;
    str buf {|,"link":|} link;
    int m buf {|,"members":|} members);
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
    | Client client -> int m buf {|"client":|} client);
    write_attrs m buf true rest

let write_fields m buf = function
  | Move_start { time = _; file_set; src; dst; flush_seconds; init_seconds } ->
    str buf {|,"file_set":|} file_set;
    opt_int m buf {|,"src":|} src;
    int m buf {|,"dst":|} dst;
    num m buf {|,"flush_seconds":|} flush_seconds;
    num m buf {|,"init_seconds":|} init_seconds
  | Move_end { time = _; file_set; dst; replayed } ->
    str buf {|,"file_set":|} file_set;
    int m buf {|,"dst":|} dst;
    int m buf {|,"replayed":|} replayed
  | Delegate_round { time = _; round; delegate; average; inputs; regions } ->
    int m buf {|,"round":|} round;
    opt_int m buf {|,"delegate":|} delegate;
    num m buf {|,"average":|} average;
    add buf {|,"inputs":[|};
    write_inputs m buf false inputs;
    add buf {|],"regions":[|};
    write_regions m buf false regions;
    Buffer.add_char buf ']'
  | Membership { time = _; server; change } ->
    int m buf {|,"server":|} server;
    add buf {|,"membership":|};
    write_change m buf change
  | Rehash_round { time = _; trigger; checked; moved } ->
    str buf {|,"trigger":|} trigger;
    int m buf {|,"checked":|} checked;
    int m buf {|,"moved":|} moved
  | Fault { time = _; server; file_set; fault } ->
    opt_int m buf {|,"server":|} server;
    opt_str buf {|,"file_set":|} file_set;
    add buf {|,"fault":|};
    write_fault m buf fault
  | Round_degraded { time = _; round; missing; survivors; skipped } ->
    int m buf {|,"round":|} round;
    add buf {|,"missing":[|};
    write_ints m buf false missing;
    int m buf {|],"survivors":|} survivors;
    add buf (if skipped then {|,"skipped":true|} else {|,"skipped":false|})
  | Fence { time = _; server; action } ->
    int m buf {|,"server":|} server;
    str buf {|,"action":|} action
  | Partition { time = _; server; link; healed } ->
    int m buf {|,"server":|} server;
    str buf {|,"link":|} link;
    add buf (if healed then {|,"healed":true|} else {|,"healed":false|})
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
  | Span_end { time = _; id; name; cat; server; outcome } ->
    int m buf {|,"id":|} id;
    str buf {|,"name":|} name;
    str buf {|,"cat":|} cat;
    opt_int m buf {|,"server":|} server;
    opt_str buf {|,"outcome":|} outcome

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

let field_float j name =
  match Json.to_float (Json.member name j) with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "missing or invalid float field %S" name)

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

let attr_of_json (key, v) =
  match key with
  | "op" -> (
    match Json.to_str v with
    | Some op -> Ok (Op op)
    | None -> Error "invalid string attribute \"op\"")
  | "client" -> (
    match Json.to_int v with
    | Some client -> Ok (Client client)
    | None -> Error "invalid int attribute \"client\"")
  | other -> Error (Printf.sprintf "unknown span attribute %S" other)

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
  | "server_crash" -> Ok Server_crash
  | "server_recover" -> Ok Server_recover
  | "delegate_crash" -> Ok Delegate_crash
  | "report_lost" ->
    let* attempt = field_int j "attempt" in
    Ok (Report_lost { attempt })
  | "report_delayed" ->
    let* delay = field_float j "delay" in
    Ok (Report_delayed { delay })
  | "move_interrupted" ->
    let* role = field_str j "role" in
    Ok (Move_interrupted { role })
  | "disk_stall_start" ->
    let* factor = field_float j "factor" in
    let* duration = field_float j "duration" in
    Ok (Disk_stall_start { factor; duration })
  | "disk_stall_end" -> Ok Disk_stall_end
  | "partition_cut" ->
    let* link = field_str j "link" in
    Ok (Partition_cut { link })
  | "partition_healed" ->
    let* link = field_str j "link" in
    Ok (Partition_healed { link })
  | "ledger_torn" ->
    let* seq = field_int j "seq" in
    Ok (Ledger_torn { seq })
  | "domain.crash" ->
    let* domain = field_str j "domain" in
    let* members = field_int j "members" in
    Ok (Domain_crash { domain; members })
  | "domain.recover" ->
    let* domain = field_str j "domain" in
    let* members = field_int j "members" in
    Ok (Domain_recover { domain; members })
  | "domain.partition_cut" ->
    let* domain = field_str j "domain" in
    let* link = field_str j "link" in
    let* members = field_int j "members" in
    Ok (Domain_partition_cut { domain; link; members })
  | "domain.partition_healed" ->
    let* domain = field_str j "domain" in
    let* link = field_str j "link" in
    let* members = field_int j "members" in
    Ok (Domain_partition_healed { domain; link; members })
  | other -> Error (Printf.sprintf "unknown fault kind %S" other)

let of_json j =
  let* kind = field_str j "type" in
  let* time = field_float j "time" in
  match kind with
  | "move_start" ->
    let* file_set = field_str j "file_set" in
    let* src = field_opt_int j "src" in
    let* dst = field_int j "dst" in
    let* flush_seconds = field_float j "flush_seconds" in
    let* init_seconds = field_float j "init_seconds" in
    Ok (Move_start { time; file_set; src; dst; flush_seconds; init_seconds })
  | "move_end" ->
    let* file_set = field_str j "file_set" in
    let* dst = field_int j "dst" in
    let* replayed = field_int j "replayed" in
    Ok (Move_end { time; file_set; dst; replayed })
  | "delegate_round" ->
    let* round = field_int j "round" in
    let* delegate = field_opt_int j "delegate" in
    let* average = field_float j "average" in
    let* inputs =
      match Json.to_list (Json.member "inputs" j) with
      | Some items -> map_result input_of_json items
      | None -> Error "missing or invalid field \"inputs\""
    in
    let* regions =
      match Json.to_list (Json.member "regions" j) with
      | Some items ->
        map_result
          (fun item ->
            let* server = field_int item "server" in
            let* measure = field_float item "measure" in
            Ok (server, measure))
          items
      | None -> Error "missing or invalid field \"regions\""
    in
    Ok (Delegate_round { time; round; delegate; average; inputs; regions })
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
    let* file_set =
      match Json.member "file_set" j with
      | Json.Null -> Ok None
      | other -> (
        match Json.to_str other with
        | Some s -> Ok (Some s)
        | None -> Error "invalid optional string field \"file_set\"")
    in
    let* fault = fault_of_json (Json.member "fault" j) in
    Ok (Fault { time; server; file_set; fault })
  | "round_degraded" ->
    let* round = field_int j "round" in
    let* missing =
      match Json.to_list (Json.member "missing" j) with
      | Some items ->
        map_result
          (fun item ->
            match Json.to_int item with
            | Some n -> Ok n
            | None -> Error "invalid entry in field \"missing\"")
          items
      | None -> Error "missing or invalid field \"missing\""
    in
    let* survivors = field_int j "survivors" in
    let* skipped =
      match Json.member "skipped" j with
      | Json.Bool b -> Ok b
      | _ -> Error "missing or invalid bool field \"skipped\""
    in
    Ok (Round_degraded { time; round; missing; survivors; skipped })
  | "fence" ->
    let* server = field_int j "server" in
    let* action = field_str j "action" in
    Ok (Fence { time; server; action })
  | "partition" ->
    let* server = field_int j "server" in
    let* link = field_str j "link" in
    let* healed =
      match Json.member "healed" j with
      | Json.Bool b -> Ok b
      | _ -> Error "missing or invalid bool field \"healed\""
    in
    Ok (Partition { time; server; link; healed })
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
    let* file_set =
      match Json.member "file_set" j with
      | Json.Null -> Ok None
      | other -> (
        match Json.to_str other with
        | Some s -> Ok (Some s)
        | None -> Error "invalid optional string field \"file_set\"")
    in
    let* epoch = field_opt_int j "epoch" in
    let* attrs =
      match Json.member "attrs" j with
      | Json.Null -> Ok []
      | Json.Obj members -> map_result attr_of_json members
      | _ -> Error "invalid field \"attrs\""
    in
    Ok
      (Span_begin
         { time; id; parent; name; cat; server; file_set; epoch; attrs })
  | "span_end" ->
    let* id = field_int j "id" in
    let* name = field_str j "name" in
    let* cat = field_str j "cat" in
    let* server = field_opt_int j "server" in
    let* outcome =
      match Json.member "outcome" j with
      | Json.Null -> Ok None
      | other -> (
        match Json.to_str other with
        | Some s -> Ok (Some s)
        | None -> Error "invalid optional string field \"outcome\"")
    in
    Ok (Span_end { time; id; name; cat; server; outcome })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let to_jsonl e =
  let buf = Buffer.create 256 in
  write_jsonl buf e;
  Buffer.contents buf

let of_jsonl line =
  let* j = Json.of_string line in
  of_json j

let pp ppf e = Format.pp_print_string ppf (to_jsonl e)
