(* Offline trace forensics: load a JSONL trace back into memory, join
   span begin/end pairs, and answer the questions a post-mortem asks —
   where did latency go, who was hot, what faults fired, and what led
   up to each invariant violation.  Pure functions over a parsed event
   list; nothing here touches the simulator. *)

module Event = Obs.Event

type span = {
  id : int;
  parent : int option;
  name : string;
  cat : string;
  mutable server : int option;
      (** the begin's, replaced by the end's when the end names one *)
  file_set : string option;
  attrs : Event.attr list;  (** the begin's *)
  begin_time : float;
  mutable end_time : float option;  (** [None]: lost to a crash *)
  mutable outcome : string option;
  mutable staged : bool;
      (** a child span of category ["request"] began inside this one *)
}

type t = {
  events : Event.t array;
  spans : span list;
  closes : span option array;
      (** for each span end in [events], the span it closed *)
}

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let events = ref [] in
        let line_no = ref 0 in
        let rec loop () =
          match input_line ic with
          | exception End_of_file -> Ok ()
          | line ->
            incr line_no;
            if String.trim line = "" then loop ()
            else (
              match Event.of_jsonl line with
              | Ok e ->
                events := e :: !events;
                loop ()
              | Error msg ->
                Error (Printf.sprintf "%s, line %d: %s" path !line_no msg))
        in
        match loop () with
        | Error _ as e -> e
        | Ok () ->
          let events = Array.of_list (List.rev !events) in
          (* Join spans by id.  Ids are unique per run but a multi-run
             trace interleaves several runs into one file, so an id can
             recur: an end always closes the most recent open begin with
             that id, and a begin after a close starts a fresh span. *)
          let open_spans : (int, span) Hashtbl.t = Hashtbl.create 1024 in
          let closes = Array.make (Array.length events) None in
          let all = ref [] in
          Array.iteri
            (fun i e ->
              match e with
              | Event.Span_begin
                  { time; id; parent; name; cat; server; file_set; attrs; _ }
                ->
                let s =
                  {
                    id;
                    parent;
                    name;
                    cat;
                    server;
                    file_set;
                    attrs;
                    begin_time = time;
                    end_time = None;
                    outcome = None;
                    staged = false;
                  }
                in
                (match parent with
                | Some p when cat = "request" -> (
                  match Hashtbl.find_opt open_spans p with
                  | Some ps -> ps.staged <- true
                  | None -> ())
                | _ -> ());
                Hashtbl.add open_spans id s;
                all := s :: !all
              | Event.Span_end { time; id; server; outcome; _ } -> (
                match Hashtbl.find_opt open_spans id with
                | Some s ->
                  Hashtbl.remove open_spans id;
                  s.end_time <- Some time;
                  if server <> None then s.server <- server;
                  s.outcome <- outcome;
                  closes.(i) <- Some s
                | None -> () (* end without begin: tolerate, skip *))
              | _ -> ())
            events;
          Ok { events; spans = List.rev !all; closes })

let length t = Array.length t.events

(* --- latency attribution --- *)

type attribution = {
  requests : int;  (** completed request spans in the window *)
  unclosed : int;  (** request spans that never closed (crash-lost) *)
  request_seconds : float;
  queue_seconds : float;
  service_seconds : float;
      (** service spans, plus the whole width of each request span
          with no stage (delivered once, at submission, to an idle
          server) *)
  buffered_seconds : float;  (** move-induced: waiting out a transfer *)
}

(* A closed span belongs to the window when its end time does; an
   unclosed one when its begin time does.  Simple, and stable under
   window shifts. *)
let in_window ~from_ ~until time = time >= from_ && time <= until

(* A request with no stage was delivered once, at submission, to an
   idle server, so it was in service for its whole width.  Adding that
   width when the fold reaches the request span keeps the additions
   into [service_seconds] in the order an explicit service span (which
   began right after its request span) would have given. *)
let attribution ~from_ ~until t =
  List.fold_left
    (fun acc s ->
      if s.cat <> "request" then acc
      else
        match s.end_time with
        | None ->
          if s.name = "request" && in_window ~from_ ~until s.begin_time then
            { acc with unclosed = acc.unclosed + 1 }
          else acc
        | Some e when in_window ~from_ ~until e -> (
          let d = e -. s.begin_time in
          match s.name with
          | "request" ->
            {
              acc with
              requests = acc.requests + 1;
              request_seconds = acc.request_seconds +. d;
              service_seconds =
                (if s.staged then acc.service_seconds
                 else acc.service_seconds +. d);
            }
          | "queue" -> { acc with queue_seconds = acc.queue_seconds +. d }
          | "service" -> { acc with service_seconds = acc.service_seconds +. d }
          | "buffered" ->
            { acc with buffered_seconds = acc.buffered_seconds +. d }
          | _ -> acc)
        | Some _ -> acc)
    {
      requests = 0;
      unclosed = 0;
      request_seconds = 0.0;
      queue_seconds = 0.0;
      service_seconds = 0.0;
      buffered_seconds = 0.0;
    }
    t.spans

(* --- hot entities --- *)

type hot_server = { server : int; completions : int; mean_latency : float }

type hot_file_set = { file_set : string; completions : int }

(* Both rankings read closed request spans: a span whose end lies in
   the window is one completion, on the server its end names, for the
   file set its begin names, with latency end - begin. *)
let is_request s = s.cat = "request" && s.name = "request"

let iter_completed ~from_ ~until t f =
  List.iter
    (fun s ->
      match s.end_time with
      | Some e when is_request s && in_window ~from_ ~until e ->
        f s (e -. s.begin_time)
      | _ -> ())
    t.spans

let hot_servers ~from_ ~until ~top t =
  let tbl : (int, (int * float) ref) Hashtbl.t = Hashtbl.create 64 in
  iter_completed ~from_ ~until t (fun s latency ->
      match s.server with
      | None -> ()
      | Some server -> (
        match Hashtbl.find_opt tbl server with
        | Some r ->
          let n, sum = !r in
          r := (n + 1, sum +. latency)
        | None -> Hashtbl.replace tbl server (ref (1, latency))));
  Hashtbl.fold
    (fun server r acc ->
      let n, sum = !r in
      { server; completions = n; mean_latency = sum /. float_of_int n } :: acc)
    tbl []
  |> List.sort (fun (a : hot_server) b ->
         match compare b.completions a.completions with
         | 0 -> compare a.server b.server
         | c -> c)
  |> List.filteri (fun i _ -> i < top)

let hot_file_sets ~from_ ~until ~top t =
  let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 256 in
  iter_completed ~from_ ~until t (fun s _ ->
      match s.file_set with
      | None -> ()
      | Some file_set -> (
        match Hashtbl.find_opt tbl file_set with
        | Some r -> incr r
        | None -> Hashtbl.replace tbl file_set (ref 1)));
  Hashtbl.fold (fun file_set r acc -> { file_set; completions = !r } :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.completions a.completions with
         | 0 -> String.compare a.file_set b.file_set
         | c -> c)
  |> List.filteri (fun i _ -> i < top)

(* --- timeline and causal slices --- *)

let opt_field key = function
  | Some v -> Printf.sprintf " %s=%s" key v
  | None -> ""

let fault_line name ?file_set server =
  "fault " ^ name
  ^ opt_field "server" (Option.map string_of_int server)
  ^ opt_field "file_set" file_set

let describe (e : Event.t) =
  match e with
  | Event.Fault { server; fault; _ } -> fault_line (Event.fault_name fault) server
  | Event.Fence { server; action; _ } ->
    Printf.sprintf "fence server=%d action=%s" server action
  | Event.Membership { server; change; _ } ->
    let change =
      match change with
      | Event.Failed -> "failed"
      | Event.Recovered -> "recovered"
      | Event.Added speed -> Printf.sprintf "added speed=%g" speed
      | Event.Speed_changed speed -> Printf.sprintf "speed=%g" speed
      | Event.Decommissioned -> "decommissioned"
    in
    Printf.sprintf "membership server=%d %s" server change
  | Event.Ledger_replay { records; torn; repaired; divergent; _ } ->
    Printf.sprintf "ledger_replay records=%d torn=%d repaired=%d divergent=%d"
      records torn repaired divergent
  | Event.Invariant_violation { what; _ } ->
    Printf.sprintf "invariant_violation %s" what
  | Event.Span_end { name; server; outcome; _ } ->
    "span_end " ^ name
    ^ opt_field "server" (Option.map string_of_int server)
    ^ opt_field "outcome" outcome
  | Event.Span_begin { name; server; file_set; _ } ->
    "span_begin " ^ name
    ^ opt_field "server" (Option.map string_of_int server)
    ^ opt_field "file_set" file_set
  | other -> Event.kind other

type entry = { time : float; line : string }

let has_domain attrs =
  List.exists (function Event.Domain _ -> true | _ -> false) attrs

(* A round that heard from only some servers: its number from the
   begin, the missing servers and survivor count from the end. *)
let short_round_line ~begin_ ~skipped attrs =
  let round =
    Option.bind begin_ (fun s ->
        List.find_map (function Event.Round n -> Some n | _ -> None) s.attrs)
  in
  let missing =
    List.concat_map (function Event.Missing l -> l | _ -> []) attrs
  in
  let survivors =
    List.fold_left (fun n -> function Event.Survivors k -> k | _ -> n) 0 attrs
  in
  Printf.sprintf "round_degraded round=%s missing=[%s] survivors=%d%s"
    (match round with Some n -> string_of_int n | None -> "?")
    (String.concat "," (List.map string_of_int missing))
    survivors
    (if skipped then " skipped" else "")

(* The timeline line of the [i]th event when it is an operational
   incident: a point fault, a fence, a membership change, a ledger
   repair or a violation, or a span edge that records a fault.  A
   fault window's edges read as the fault counters name them, a move
   span that ends ["interrupted"] reads as a [move_interrupted] fault,
   and a round that ends ["degraded"] or ["skipped"] reads as a
   [round_degraded] line; an end is joined to its begin for the
   window's domain, the move's file set and the round's number.
   Request-level events stay out: the timeline is for reading, not
   replaying. *)
let incident t i (e : Event.t) =
  match e with
  | Event.Fault _ | Event.Fence _ | Event.Membership _ | Event.Ledger_replay _
  | Event.Invariant_violation _ ->
    Some (describe e)
  | Event.Span_begin { cat = "fault"; name; server; attrs; _ } ->
    Some
      (fault_line
         (Event.window_edge ~name ~domain:(has_domain attrs) ~closing:false)
         server)
  | Event.Span_end { cat = "fault"; name; server; _ } ->
    let domain =
      match t.closes.(i) with Some s -> has_domain s.attrs | None -> false
    in
    Some (fault_line (Event.window_edge ~name ~domain ~closing:true) server)
  | Event.Span_end { cat = "move"; outcome = Some "interrupted"; server; _ } ->
    let file_set = Option.bind t.closes.(i) (fun s -> s.file_set) in
    Some (fault_line "move_interrupted" ?file_set server)
  | Event.Span_end
      {
        name = "round";
        outcome = Some (("degraded" | "skipped") as o);
        attrs;
        _;
      } ->
    Some
      (short_round_line ~begin_:t.closes.(i) ~skipped:(o = "skipped") attrs)
  | _ -> None

let timeline ~from_ ~until t =
  let entries = ref [] in
  Array.iteri
    (fun i e ->
      let time = Event.time e in
      if in_window ~from_ ~until time then
        match incident t i e with
        | Some line -> entries := { time; line } :: !entries
        | None -> ())
    t.events;
  List.rev !entries

(* --- explain violation --- *)

(* Invariant messages are prose ("file set fs-12 owned by failed server
   3", "two live delegates: servers 1 and 4"); pull the implicated
   entities back out by scanning tokens: integers after a
   "server"/"servers" keyword (skipping "and" between them), the token
   after "file set". *)
let violation_entities what =
  let is_word c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-' || c = '_' || c = '.'
  in
  let tokens =
    let buf = Buffer.create 16 in
    let out = ref [] in
    String.iter
      (fun c ->
        if is_word c then Buffer.add_char buf c
        else if Buffer.length buf > 0 then begin
          out := Buffer.contents buf :: !out;
          Buffer.clear buf
        end)
      what;
    if Buffer.length buf > 0 then out := Buffer.contents buf :: !out;
    List.rev !out
  in
  let rec numbers acc = function
    | tok :: rest when tok = "and" -> numbers acc rest
    | tok :: rest -> (
      match int_of_string_opt tok with
      | Some n -> numbers (n :: acc) rest
      | None -> (acc, tok :: rest))
    | [] -> (acc, [])
  in
  let rec scan servers file_sets = function
    | [] -> (List.sort_uniq compare (List.rev servers),
             List.sort_uniq String.compare (List.rev file_sets))
    | ("server" | "servers") :: rest ->
      let ns, rest = numbers [] rest in
      scan (ns @ servers) file_sets rest
    | "file" :: "set" :: name :: rest when int_of_string_opt name = None ->
      scan servers (name :: file_sets) rest
    | _ :: rest -> scan servers file_sets rest
  in
  scan [] [] tokens

let touches t i ~servers ~file_sets (e : Event.t) =
  let s n = List.mem n servers in
  let so = function Some n -> s n | None -> false in
  let fo = function Some name -> List.mem name file_sets | None -> false in
  match e with
  | Event.Membership { server; _ } | Event.Fence { server; _ } -> s server
  | Event.Fault { server; _ } -> so server
  | Event.Span_begin { server; file_set; attrs; _ } ->
    so server || fo file_set
    || List.exists (function Event.Src n -> s n | _ -> false) attrs
  | Event.Span_end { server; attrs; _ } ->
    so server
    || fo (Option.bind t.closes.(i) (fun sp -> sp.file_set))
    || List.exists
         (function Event.Missing l -> List.exists s l | _ -> false)
         attrs
  | _ -> false

(* The slice line of the [i]th event when it may join a causal slice:
   every operational incident, plus the other edges of move and fault
   spans (a move's begin says what moved where).  Request traffic
   stays excluded. *)
let slice_line t i (e : Event.t) =
  match incident t i e with
  | Some _ as line -> line
  | None -> (
    match e with
    | Event.Span_begin { cat = "fault" | "move"; _ }
    | Event.Span_end { cat = "fault" | "move"; _ } ->
      Some (describe e)
    | _ -> None)

type violation = {
  at : float;
  what : string;
  servers : int list;
  file_sets : string list;
  slice : entry list;  (** last [slice_limit] implicating events, oldest first *)
}

let slice_limit = 12

let explain ~from_ ~until t =
  let violations = ref [] in
  Array.iteri
    (fun i e ->
      match e with
      | Event.Invariant_violation { time; what }
        when in_window ~from_ ~until time ->
        let servers, file_sets = violation_entities what in
        let slice = ref [] in
        let count = ref 0 in
        (* Walk backwards from the violation so the slice is the
           *closest* history, then reverse into chronological order. *)
        (try
           for j = i - 1 downto 0 do
             let c = t.events.(j) in
             match slice_line t j c with
             | Some line
               when (servers = [] && file_sets = [])
                    || touches t j ~servers ~file_sets c ->
               slice := { time = Event.time c; line } :: !slice;
               incr count;
               if !count >= slice_limit then raise Exit
             | _ -> ()
           done
         with Exit -> ());
        violations :=
          { at = time; what; servers; file_sets; slice = !slice }
          :: !violations
      | _ -> ())
    t.events;
  List.rev !violations

(* --- the report --- *)

type report = {
  path : string option;
  events : int;  (** events inside the window *)
  from_ : float;
  until : float;
  top : int;
  attribution : attribution;
  servers : hot_server list;
  file_sets : hot_file_set list;
  faults : entry list;
  violations : violation list;
}

let analyze ?from_ ?until ?(top = 5) ?path (t : t) =
  let from_ = Option.value from_ ~default:neg_infinity in
  let until = Option.value until ~default:infinity in
  let events =
    Array.fold_left
      (fun n e -> if in_window ~from_ ~until (Event.time e) then n + 1 else n)
      0 t.events
  in
  {
    path;
    events;
    from_;
    until;
    top;
    attribution = attribution ~from_ ~until t;
    servers = hot_servers ~from_ ~until ~top t;
    file_sets = hot_file_sets ~from_ ~until ~top t;
    faults = timeline ~from_ ~until t;
    violations = explain ~from_ ~until t;
  }

let pp_bound ppf x =
  if x = neg_infinity then Format.pp_print_string ppf "start"
  else if x = infinity then Format.pp_print_string ppf "end"
  else Format.fprintf ppf "%.3f" x

let pp_entry ppf e = Format.fprintf ppf "[%10.3f] %s" e.time e.line

let pp_report ppf r =
  Format.fprintf ppf "trace-report%a: %d event(s) in window [%a, %a]@."
    (fun ppf -> function
      | Some p -> Format.fprintf ppf " %s" p
      | None -> ())
    r.path r.events pp_bound r.from_ pp_bound r.until;
  let a = r.attribution in
  Format.fprintf ppf "latency attribution (%d completed request(s)):@."
    a.requests;
  let pct part =
    if a.request_seconds > 0.0 then
      Printf.sprintf " (%5.1f%%)" (100.0 *. part /. a.request_seconds)
    else ""
  in
  Format.fprintf ppf "  queue     %12.6f s%s@." a.queue_seconds
    (pct a.queue_seconds);
  Format.fprintf ppf "  service   %12.6f s%s@." a.service_seconds
    (pct a.service_seconds);
  Format.fprintf ppf "  buffered  %12.6f s%s  (move-induced)@."
    a.buffered_seconds (pct a.buffered_seconds);
  Format.fprintf ppf "  total     %12.6f s@." a.request_seconds;
  if a.unclosed > 0 then
    Format.fprintf ppf "  unclosed request span(s): %d (lost to crashes)@."
      a.unclosed;
  Format.fprintf ppf "hot servers (top %d by completions):@." r.top;
  List.iter
    (fun (h : hot_server) ->
      Format.fprintf ppf "  server %d: %d request(s), mean latency %.6f s@."
        h.server h.completions h.mean_latency)
    r.servers;
  Format.fprintf ppf "hot file sets (top %d by completions):@." r.top;
  List.iter
    (fun (h : hot_file_set) ->
      Format.fprintf ppf "  %s: %d request(s)@." h.file_set h.completions)
    r.file_sets;
  Format.fprintf ppf "fault/fence timeline: %d event(s)@."
    (List.length r.faults);
  List.iter (fun e -> Format.fprintf ppf "  %a@." pp_entry e) r.faults;
  Format.fprintf ppf "violations: %d@." (List.length r.violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "  [%10.3f] %s@." v.at v.what;
      let entities =
        List.map (fun s -> Printf.sprintf "server %d" s) v.servers
        @ List.map (fun f -> Printf.sprintf "file set %s" f) v.file_sets
      in
      Format.fprintf ppf "    implicated: %s@."
        (match entities with
        | [] -> "(none parsed)"
        | es -> String.concat ", " es);
      Format.fprintf ppf "    causal slice (last %d implicating event(s)):@."
        (List.length v.slice);
      List.iter (fun e -> Format.fprintf ppf "      %a@." pp_entry e) v.slice)
    r.violations
