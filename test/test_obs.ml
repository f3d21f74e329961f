(* Obs: JSON codec, event round-trips, sinks, metrics, and the
   runner's instrumentation contract (one round span per
   reconfiguration interval). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let event_t = Alcotest.testable Obs.Event.pp ( = )

(* --- Json codec --- *)

let test_json_round_trip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("null", Null);
        ("yes", Bool true);
        ("no", Bool false);
        ("int", Num 42.0);
        ("neg", Num (-7.0));
        ("frac", Num 0.1);
        ("pi", Num 3.141592653589793);
        ("tiny", Num 1.2e-17);
        ("str", Str "he said \"hi\"\n\ttab \\ slash");
        ("unicode", Str "caf\xc3\xa9");
        ("list", List [ Num 1.0; Str "two"; List []; Obj [] ]);
      ]
  in
  match of_string (to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> check_bool "structurally equal" true (v = v')

let test_json_parse_escapes () =
  let open Obs.Json in
  (match of_string {|"aAé😀b"|} with
  | Ok (Str s) ->
    Alcotest.(check string)
      "escapes decode to UTF-8" "aA\xc3\xa9\xf0\x9f\x98\x80b" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  check_bool "garbage rejected" true
    (Result.is_error (of_string "{\"unterminated\": "));
  check_bool "trailing junk rejected" true
    (Result.is_error (of_string "[1, 2] extra"))

(* --- Event serialization --- *)

let sample_events =
  [
    Obs.Event.Span_begin
      {
        time = 0.125;
        id = 2;
        parent = None;
        name = "request";
        cat = "request";
        server = None;
        file_set = Some "fs-001";
        epoch = None;
        attrs = [ Obs.Event.Client 3; Obs.Event.Op "open" ];
      };
    Obs.Event.Span_end
      {
        time = 17.3;
        id = 2;
        name = "request";
        cat = "request";
        server = Some 2;
        outcome = None;
        attrs = [];
      };
    Obs.Event.Span_begin
      {
        time = 120.0;
        id = 3;
        parent = None;
        name = "move";
        cat = "move";
        server = Some 4;
        file_set = Some "fs-003";
        epoch = None;
        attrs =
          Obs.Event.[ Src 1; Flush_seconds 0.5; Init_seconds 1.25 ];
      };
    Obs.Event.Span_begin
      {
        time = 121.0;
        id = 4;
        parent = None;
        name = "move";
        cat = "move";
        server = Some 0;
        file_set = Some "fs-orphan";
        epoch = None;
        attrs = Obs.Event.[ Flush_seconds 0.0; Init_seconds 2.0 ];
      };
    Obs.Event.Span_end
      {
        time = 122.75;
        id = 3;
        name = "move";
        cat = "move";
        server = Some 4;
        outcome = Some "commit";
        attrs = [ Obs.Event.Replayed 7 ];
      };
    Obs.Event.Span_end
      {
        time = 123.0;
        id = 4;
        name = "move";
        cat = "move";
        server = Some 0;
        outcome = Some "interrupted";
        attrs = [ Obs.Event.Role "dst" ];
      };
    Obs.Event.Span_begin
      {
        time = 240.0;
        id = 5;
        parent = None;
        name = "round";
        cat = "round";
        server = None;
        file_set = None;
        epoch = Some 0;
        attrs = [ Obs.Event.Round 2 ];
      };
    Obs.Event.Span_begin
      {
        time = 240.0;
        id = 6;
        parent = Some 5;
        name = "tune";
        cat = "round";
        server = None;
        file_set = None;
        epoch = None;
        attrs =
          Obs.Event.
            [
              Average 0.042;
              Inputs
                [
                  {
                    server = 0;
                    mean_latency = 0.03;
                    max_latency = 0.1;
                    requests = 150;
                    queue_depth = 2;
                  };
                  {
                    server = 1;
                    mean_latency = 0.07;
                    max_latency = 0.3;
                    requests = 80;
                    queue_depth = 5;
                  };
                ];
            ];
      };
    Obs.Event.Span_end
      {
        time = 240.0;
        id = 6;
        name = "tune";
        cat = "round";
        server = None;
        outcome = None;
        attrs = [ Obs.Event.Regions [ (0, 0.31); (1, 0.19) ] ];
      };
    Obs.Event.Span_begin
      {
        time = 360.0;
        id = 7;
        parent = None;
        name = "tune";
        cat = "round";
        server = None;
        file_set = None;
        epoch = None;
        attrs = Obs.Event.[ Average 0.0; Inputs []; Regions [] ];
      };
    Obs.Event.Membership { time = 500.0; server = 4; change = Obs.Event.Failed };
    Obs.Event.Membership
      { time = 800.0; server = 4; change = Obs.Event.Recovered };
    Obs.Event.Membership
      { time = 900.0; server = 5; change = Obs.Event.Added 7.0 };
    Obs.Event.Membership
      { time = 950.0; server = 1; change = Obs.Event.Speed_changed 0.5 };
    Obs.Event.Membership
      { time = 955.0; server = 2; change = Obs.Event.Decommissioned };
    Obs.Event.Rehash_round
      { time = 960.0; trigger = "fail"; checked = 40; moved = 9 };
    Obs.Event.Fault
      {
        time = 972.0;
        server = None;
        fault = Obs.Event.Delegate_crash;
      };
    Obs.Event.Fault
      {
        time = 973.0;
        server = Some 1;
        fault = Obs.Event.Report_lost { attempt = 2 };
      };
    Obs.Event.Fault
      {
        time = 974.0;
        server = Some 1;
        fault = Obs.Event.Report_delayed { delay = 0.25 };
      };
    Obs.Event.Span_end
      {
        time = 980.0;
        id = 15;
        name = "round";
        cat = "round";
        server = None;
        outcome = Some "degraded";
        attrs = [ Obs.Event.Missing [ 1; 3 ]; Obs.Event.Survivors 3 ];
      };
    Obs.Event.Span_end
      {
        time = 990.0;
        id = 16;
        name = "round";
        cat = "round";
        server = None;
        outcome = Some "skipped";
        attrs = [ Obs.Event.Missing [ 0; 1; 2 ]; Obs.Event.Survivors 0 ];
      };
    Obs.Event.Span_begin
      {
        time = 1000.0;
        id = 17;
        parent = Some 3;
        name = "queue";
        cat = "request";
        server = Some 2;
        file_set = Some "fs-005";
        epoch = None;
        attrs = [];
      };
    Obs.Event.Span_begin
      {
        time = 1001.0;
        id = 18;
        parent = None;
        name = "round";
        cat = "round";
        server = None;
        file_set = None;
        epoch = Some 4;
        attrs = [];
      };
    Obs.Event.Span_end
      {
        time = 1002.5;
        id = 17;
        name = "queue";
        cat = "request";
        server = Some 2;
        outcome = None;
        attrs = [];
      };
    Obs.Event.Span_end
      {
        time = 1003.0;
        id = 18;
        name = "round";
        cat = "round";
        server = None;
        outcome = Some "applied";
        attrs = [];
      };
    Obs.Event.Span_begin
      {
        time = 1010.0;
        id = 19;
        parent = None;
        name = "partition";
        cat = "fault";
        server = Some 0;
        file_set = None;
        epoch = None;
        attrs = [ Obs.Event.Link "cluster" ];
      };
    Obs.Event.Span_begin
      {
        time = 1013.0;
        id = 20;
        parent = None;
        name = "crash";
        cat = "fault";
        server = None;
        file_set = None;
        epoch = None;
        attrs = Obs.Event.[ Domain "rack0"; Members 3 ];
      };
    Obs.Event.Span_begin
      {
        time = 1015.0;
        id = 21;
        parent = None;
        name = "partition";
        cat = "fault";
        server = None;
        file_set = None;
        epoch = None;
        attrs = Obs.Event.[ Domain "rack1"; Link "disk"; Members 2 ];
      };
    Obs.Event.Span_begin
      {
        time = 1016.0;
        id = 22;
        parent = None;
        name = "disk-stall";
        cat = "fault";
        server = None;
        file_set = None;
        epoch = None;
        attrs = [ Obs.Event.Factor 4.0 ];
      };
    Obs.Event.Fault
      {
        time = 1012.0;
        server = None;
        fault = Obs.Event.Ledger_torn { seq = 12 };
      };
    Obs.Event.Fence { time = 1020.0; server = 3; action = "fenced" };
    Obs.Event.Fence { time = 1020.5; server = 3; action = "write_rejected" };
    Obs.Event.Ledger_replay
      { time = 1023.0; records = 41; torn = 1; repaired = 1; divergent = 0 };
    Obs.Event.Invariant_violation
      { time = 1024.0; what = "half-occupancy broken:\t\"0.6\"\n" };
  ]

let test_event_jsonl_round_trip () =
  List.iter
    (fun e ->
      match Obs.Event.of_jsonl (Obs.Event.to_jsonl e) with
      | Error err ->
        Alcotest.failf "%s failed to reparse: %s" (Obs.Event.kind e) err
      | Ok e' -> Alcotest.check event_t (Obs.Event.kind e) e e')
    sample_events

let test_event_kinds_distinct () =
  let kinds = List.sort_uniq compare (List.map Obs.Event.kind sample_events) in
  check_int "all eight kinds exercised" 8 (List.length kinds);
  List.iter
    (fun e ->
      let json = Obs_oracle.event_to_json e in
      Alcotest.(check (option string))
        "type field matches kind" (Some (Obs.Event.kind e))
        Obs.Json.(to_str (member "type" json)))
    sample_events

let test_event_of_jsonl_errors () =
  check_bool "bad json" true (Result.is_error (Obs.Event.of_jsonl "{nope"));
  check_bool "unknown type" true
    (Result.is_error (Obs.Event.of_jsonl {|{"type":"martian","time":1}|}));
  check_bool "missing field" true
    (Result.is_error (Obs.Event.of_jsonl {|{"type":"span_end","time":1}|}));
  (* Every lifecycle is spans only: the old duplicate records are
     unknown types now, reported by name. *)
  List.iter
    (fun kind ->
      Alcotest.(check (result reject string))
        (kind ^ " is unknown")
        (Error (Printf.sprintf "unknown event type %S" kind))
        (Result.map ignore
           (Obs.Event.of_jsonl
              (Printf.sprintf {|{"type":%S,"time":1,"file_set":"fs-1"}|} kind))))
    [
      "request_submit"; "request_complete"; "move_start"; "move_end";
      "delegate_round"; "partition"; "round_degraded";
    ];
  (* A number too large for a float parses as infinity; a time or a
     float payload must be finite, and an int must fit OCaml's int. *)
  List.iter
    (fun (line, err) ->
      Alcotest.(check (result reject string))
        line (Error err)
        (Result.map ignore (Obs.Event.of_jsonl line)))
    [
      ( {|{"type":"span_end","time":1e400,"id":2,"name":"request","cat":"request","server":3,"outcome":null}|},
        {|non-finite float field "time"|} );
      ( {|{"type":"fault","time":1,"server":1,"file_set":null,"fault":{"fault":"report_delayed","delay":-1e400}}|},
        {|non-finite float field "delay"|} );
      ( {|{"type":"span_begin","time":1,"id":2,"parent":null,"name":"disk-stall","cat":"fault","server":null,"file_set":null,"epoch":null,"attrs":{"factor":1e999}}|},
        {|non-finite float attribute "factor"|} );
      ( {|{"type":"span_end","time":1,"id":99999999999999999999999,"name":"request","cat":"request","server":3,"outcome":null}|},
        {|missing or invalid int field "id"|} );
    ];
  let span_begin attrs =
    Printf.sprintf
      {|{"type":"span_begin","time":1,"id":2,"parent":null,"name":"request","cat":"request","server":null,"file_set":null,"epoch":null,"attrs":%s}|}
      attrs
  in
  check_bool "unknown attribute key" true
    (Result.is_error (Obs.Event.of_jsonl (span_begin {|{"colour":"red"}|})));
  check_bool "op must be a string" true
    (Result.is_error (Obs.Event.of_jsonl (span_begin {|{"op":3}|})));
  check_bool "client must be an int" true
    (Result.is_error (Obs.Event.of_jsonl (span_begin {|{"client":"c3"}|})));
  check_bool "attrs must be an object" true
    (Result.is_error (Obs.Event.of_jsonl (span_begin {|["open"]|})))

(* --- Direct writer vs the test/ tree oracle (Obs_oracle) --- *)

let check_string = Alcotest.(check string)

(* Values at every branch of the number rule: non-finite, signed zero,
   subnormal, the integral cut-off at 1e15, the 2^53 boundary, and
   fractions that need 15, 16 or 17 significant digits. *)
let number_cases =
  [
    0.0; -0.0; infinity; neg_infinity; nan;
    Int64.float_of_bits 0x7ff8dead0000beefL; 5e-324; -5e-324;
    2.2250738585072009e-308; Float.min_float; max_float; -.max_float; 1.0;
    -1.0; 42.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; 1e15 +. 1.0;
    1e15 +. 0.5; 999999999999999.9; 9007199254740991.0; 9007199254740992.0;
    9007199254740993.0; 9007199254740994.0; -9007199254740994.0; 0.1; 0.2;
    0.1 +. 0.2; 1.0 /. 3.0; 2.0 /. 3.0; 3.141592653589793; 123456789012345.6;
    1234567890123456.7; 0.0371; 1.2e-17; 1e300; 1e-300; 17.3 -. 0.0371;
  ]

let test_number_fixed_cases () =
  List.iter
    (fun x ->
      let label = Printf.sprintf "%h" x in
      check_string label (Obs_oracle.number_to_string x)
        (Obs.Json.number_to_string x);
      check_string (label ^ " in a tree")
        (Obs_oracle.to_string (Obs.Json.Num x))
        (Obs.Json.to_string (Obs.Json.Num x)))
    number_cases

let prop_number_random_bits =
  QCheck.Test.make ~count:5000
    ~name:"json numbers match the Printf oracle on random bit patterns"
    QCheck.(make ~print:(Printf.sprintf "0x%Lx") Gen.ui64)
    (fun bits ->
      let x = Int64.float_of_bits bits in
      String.equal (Obs.Json.number_to_string x)
        (Obs_oracle.number_to_string x))

(* The exact renderer covers 1e-6 <= |x| < 1e15; random bit patterns
   mostly land outside it.  Log-uniform magnitudes from 1e-8 to 1e15,
   both signs, cover the whole range and both of its edges. *)
let prop_number_fast_range =
  QCheck.Test.make ~count:20000
    ~name:"json numbers match the Printf oracle from 1e-8 to 1e15"
    QCheck.(
      make ~print:(Printf.sprintf "%h")
        Gen.(
          map2
            (fun e neg -> if neg then -.(10.0 ** e) else 10.0 ** e)
            (float_range (-8.0) 15.0) bool))
    (fun x ->
      String.equal (Obs.Json.number_to_string x)
        (Obs_oracle.number_to_string x))

(* [q + odd / 2^j] for an integer [q] of [digits - j] digits: an exact
   decimal of [digits] significant digits ending in 5, so a tie at digit
   [digits - 1].  Candidates a double cannot hold exactly are dropped by
   checking their exact expansion. *)
let decimal_ties ~digits =
  let tie j odd =
    let q = Float.round (1.2345 *. (10.0 ** float_of_int (digits - j - 1))) in
    q +. Float.ldexp (float_of_int odd) (-j)
  in
  let exact_tie x =
    let s = Printf.sprintf "%.40e" x in
    s.[digits] = '5'
    && String.for_all (( = ) '0') (String.sub s (digits + 1) (41 - digits))
  in
  List.init (digits - 1) (fun j -> j + 1)
  |> List.concat_map (fun j -> List.map (tie j) [ 1; 3; (1 lsl j) - 1 ])
  |> List.filter exact_tie

(* [x] and its [n] nearest neighbours on each side. *)
let ulps_around n x =
  let rec walk step x k =
    if k = 0 then [] else x :: walk step (step x) (k - 1)
  in
  (x :: walk Float.pred (Float.pred x) n) @ walk Float.succ (Float.succ x) n

let test_number_exact_table () =
  let powers =
    List.init 28 (fun i -> float_of_string (Printf.sprintf "1e%d" (i - 10)))
  in
  let ties15 = decimal_ties ~digits:16 and ties17 = decimal_ties ~digits:18 in
  check_bool "ties at the 15th digit" true (List.length ties15 > 20);
  check_bool "ties at the 17th digit" true (List.length ties17 > 20);
  let ties = ties15 @ ties17 in
  let table =
    List.concat
      [
        List.concat_map (ulps_around 1000) powers;
        ties;
        List.map Float.neg ties;
        (* [%g] switches to exponent form below 1e-4 *)
        ulps_around 50 1e-5;
        ulps_around 50 1e-4;
        [ 9.99999e-5; 9.999999999999999e-5; 1.00001e-5; 0.000123; 1.23e-5 ];
        (* just below 1e6, where log10 rounds up *)
        [ 0x1.e847ffffffff7p+19 ];
        (* non-integers in [1e15, 2^53) *)
        [
          1e15 +. 0.5; 1e15 +. 0.25; 2e15 +. 0.125; 4503599627370495.5;
          -4503599627370495.5;
        ];
        [
          -0.0; 5e-324; -5e-324; 0x0.fffffffffffffp-1022; 0x0.8p-1022;
          Float.min_float; max_float; -.max_float;
        ];
      ]
  in
  List.iter
    (fun x ->
      check_string (Printf.sprintf "%h" x) (Obs_oracle.number_to_string x)
        (Obs.Json.number_to_string x))
    table

(* Rendering never allocates: 10k distinct trace-like values (times,
   latencies, negative offsets, a few integers) into a buffer sized up
   front.  A list holds them boxed, as event records do. *)
let rec add_numbers w = function
  | [] -> ()
  | x :: rest ->
    Obs.Json.Writer.number w x;
    add_numbers w rest

let test_number_render_allocates_nothing () =
  let st = Random.State.make [| 14 |] in
  let xs =
    List.init 10_000 (fun i ->
        match i mod 4 with
        | 0 -> (float_of_int i *. 0.0137) +. Random.State.float st 1.0
        | 1 -> Random.State.float st 2.0
        | 2 -> -.Random.State.float st 1e4
        | _ -> float_of_int i)
  in
  let w = Obs.Json.Writer.create (32 * 10_000) in
  let before = Gc.minor_words () in
  add_numbers w xs;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before);
  check_string "same text as the oracle"
    (String.concat "" (List.map Obs_oracle.number_to_string xs))
    (Obs.Json.Writer.contents w)

(* Floats drawn mostly from a small pool, so that sequences repeat a
   value, alternate A/B/A, put -0.0 next to 0.0 and a NaN or infinity
   after a cached value: every memo hit and eviction path. *)
let float_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          oneofl
            [
              0.0; -0.0; nan; infinity; neg_infinity; 0.5; 17.3; 0.0371; 1e15;
              2.0 /. 3.0;
            ] );
        (2, map Int64.float_of_bits ui64);
        ( 2,
          map
            (fun n -> float_of_int n /. 1000.0)
            (int_range (-100_000) 100_000) );
      ])

(* One number's text through a writer that keeps its cache. *)
let add_number_text w x =
  Obs.Json.Writer.clear w;
  Obs.Json.Writer.number w x;
  Obs.Json.Writer.contents w

let prop_memo_sequences =
  QCheck.Test.make ~count:500
    ~name:"memoized number sequences match the oracle"
    QCheck.(
      make
        ~print:(fun xs ->
          String.concat "; " (List.map (Printf.sprintf "%h") xs))
        Gen.(list_size (1 -- 30) float_gen))
    (fun xs ->
      let w = Obs.Json.Writer.create 32 in
      List.for_all
        (fun x ->
          String.equal (add_number_text w x) (Obs_oracle.number_to_string x))
        xs)

let test_memo_fixed_sequences () =
  let w = Obs.Json.Writer.create 32 in
  List.iter
    (List.iter (fun x ->
         check_string (Printf.sprintf "%h" x) (Obs_oracle.number_to_string x)
           (add_number_text w x)))
    [
      [ 1.5; 1.5; 1.5 ];
      [ 0.25; 0.75; 0.25; 0.75; 0.125; 0.25 ];
      [ 0.0; -0.0; 0.0; -0.0 ];
      [
        2.0; nan; 2.0; infinity; neg_infinity; 2.0;
        Int64.float_of_bits 0x7ff0000000000001L;
      ];
      [ 1e15; 1e15 -. 1.0; 1e15 ];
      (* An out-of-range value (printf fallback) between two cached
         ones, then short texts into the slot a long one held. *)
      [ 0.25; 0.75; -2.2250738585072014e-308; 0.75; -2.2250738585072014e-308;
        0.75; 0.25; 0.5; 1e300; 0.0371; 1e300; 2.0 ** 60.0; 0.0371; 7.0 ];
    ]

let test_writer_matches_oracle () =
  List.iter
    (fun e ->
      check_string (Obs.Event.kind e) (Obs_oracle.event_to_jsonl e)
        (Obs.Event.to_jsonl e))
    sample_events;
  (* The same samples through one shared writer, as a sink writes
     them. *)
  let w = Obs.Json.Writer.create 4096 in
  List.iter
    (fun e ->
      Obs.Event.write_jsonl w e;
      Obs.Json.Writer.char w '\n')
    sample_events;
  check_string "one buffer, one memo"
    (String.concat ""
       (List.map (fun e -> Obs_oracle.event_to_jsonl e ^ "\n") sample_events))
    (Obs.Json.Writer.contents w)

(* Random events: strings that need escaping, ids far outside the
   integer fast path, every None/Some combination, memo-heavy floats. *)
let event_gen =
  let open QCheck.Gen in
  let module E = Obs.Event in
  let str =
    string_size (0 -- 8)
      ~gen:
        (frequency
           [
             (6, char_range 'a' 'z');
             (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012'; '/' ]);
             (1, char_range '\000' '\031');
             (1, char_range '\127' '\255');
           ])
  in
  let num =
    frequency
      [
        (5, small_signed_int);
        ( 1,
          oneofl
            [
              max_int; min_int; 999_999_999_999_999; 1_000_000_000_000_000;
              -1_000_000_000_000_000; 9_007_199_254_740_993;
            ] );
        (1, int);
      ]
  in
  let fault =
    oneof
      [
        return E.Delegate_crash;
        map (fun attempt -> E.Report_lost { attempt }) num;
        map (fun delay -> E.Report_delayed { delay }) float_gen;
        map (fun seq -> E.Ledger_torn { seq }) num;
      ]
  in
  let change =
    oneof
      [
        oneofl E.[ Failed; Recovered; Decommissioned ];
        map (fun s -> E.Added s) float_gen;
        map (fun s -> E.Speed_changed s) float_gen;
      ]
  in
  let input =
    let* server = num and* mean_latency = float_gen
    and* max_latency = float_gen and* requests = num and* queue_depth = num in
    return { E.server; mean_latency; max_latency; requests; queue_depth }
  in
  let attrs =
    list_size (0 -- 3)
      (oneof
         [
           map (fun op -> E.Op op) str;
           map (fun c -> E.Client c) num;
           map (fun n -> E.Src n) num;
           map (fun x -> E.Flush_seconds x) float_gen;
           map (fun x -> E.Init_seconds x) float_gen;
           map (fun n -> E.Replayed n) num;
           map (fun r -> E.Role r) str;
           map (fun n -> E.Round n) num;
           map (fun x -> E.Average x) float_gen;
           map (fun l -> E.Inputs l) (list_size (0 -- 3) input);
           map (fun l -> E.Regions l) (list_size (0 -- 3) (pair num float_gen));
           map (fun d -> E.Domain d) str;
           map (fun l -> E.Link l) str;
           map (fun n -> E.Members n) num;
           map (fun x -> E.Factor x) float_gen;
           map (fun l -> E.Missing l) (list_size (0 -- 3) num);
           map (fun n -> E.Survivors n) num;
         ])
  in
  let* time = float_gen in
  oneof
    [
      (let* server = num and* change = change in
       return (E.Membership { time; server; change }));
      (let* trigger = str and* checked = num and* moved = num in
       return (E.Rehash_round { time; trigger; checked; moved }));
      (let* server = option num and* fault = fault in
       return (E.Fault { time; server; fault }));
      (let* server = num and* action = str in
       return (E.Fence { time; server; action }));
      (let* records = num and* torn = num and* repaired = num
       and* divergent = num in
       return (E.Ledger_replay { time; records; torn; repaired; divergent }));
      (let* what = str in
       return (E.Invariant_violation { time; what }));
      (let* id = num and* parent = option num and* name = str and* cat = str
       and* server = option num and* file_set = option str
       and* epoch = option num and* attrs = attrs in
       return
         (E.Span_begin
            { time; id; parent; name; cat; server; file_set; epoch; attrs }));
      (let* id = num and* name = str and* cat = str
       and* server = option num and* outcome = option str
       and* attrs = attrs in
       return (E.Span_end { time; id; name; cat; server; outcome; attrs }));
    ]

let prop_writer_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"random event sequences write like the tree oracle"
    QCheck.(
      make
        ~print:(fun es ->
          String.concat "\n" (List.map Obs_oracle.event_to_jsonl es))
        Gen.(list_size (1 -- 12) event_gen))
    (fun events ->
      let w = Obs.Json.Writer.create 256 in
      List.for_all
        (fun e ->
          Obs.Json.Writer.clear w;
          Obs.Event.write_jsonl w e;
          String.equal (Obs.Json.Writer.contents w)
            (Obs_oracle.event_to_jsonl e))
        events)

(* --- Ring sink --- *)

let nth_request i =
  Obs.Event.Span_begin
    {
      time = float_of_int i;
      id = i;
      parent = None;
      name = "request";
      cat = "request";
      server = None;
      file_set = Some (Printf.sprintf "fs-%d" i);
      epoch = None;
      attrs = [ Obs.Event.Client 0; Obs.Event.Op "open" ];
    }

let test_ring_capacity_eviction () =
  let ring = Obs.Sink.Ring.create ~capacity:4 in
  let sink = Obs.Sink.Ring.sink ring in
  check_int "empty" 0 (Obs.Sink.Ring.length ring);
  for i = 1 to 10 do
    sink.Obs.Sink.emit (nth_request i)
  done;
  check_int "capped at capacity" 4 (Obs.Sink.Ring.length ring);
  check_int "evictions counted" 6 (Obs.Sink.Ring.dropped ring);
  Alcotest.(check (list event_t))
    "keeps newest, oldest first"
    [ nth_request 7; nth_request 8; nth_request 9; nth_request 10 ]
    (Obs.Sink.Ring.contents ring);
  Obs.Sink.Ring.clear ring;
  check_int "clear empties" 0 (Obs.Sink.Ring.length ring);
  check_int "clear resets dropped" 0 (Obs.Sink.Ring.dropped ring);
  sink.Obs.Sink.emit (nth_request 11);
  Alcotest.(check (list event_t))
    "usable after clear" [ nth_request 11 ]
    (Obs.Sink.Ring.contents ring)

(* --- JSONL sink --- *)

let with_temp_file f =
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_jsonl_file_sink () =
  with_temp_file (fun path ->
      let sink = Obs.Sink.jsonl_file path in
      List.iter sink.Obs.Sink.emit sample_events;
      sink.Obs.Sink.close ();
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
      in
      check_int "one line per event" (List.length sample_events)
        (List.length lines);
      List.iter2
        (fun e line ->
          match Obs.Event.of_jsonl line with
          | Error err -> Alcotest.failf "line failed to parse: %s" err
          | Ok e' -> Alcotest.check event_t "line round-trips" e e')
        sample_events lines)

let test_jsonl_sink_buffers_until_close () =
  with_temp_file (fun path ->
      let sink = Obs.Sink.jsonl_file path in
      List.iter sink.Obs.Sink.emit sample_events;
      (* Below the 64 KiB buffer threshold nothing has hit the file
         yet — the sink batches writes instead of syscall-per-event. *)
      check_int "buffered, not yet written" 0
        (String.length (read_file path));
      sink.Obs.Sink.close ();
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
      in
      check_int "close drains every buffered event"
        (List.length sample_events) (List.length lines))

(* Random events through [Sink.jsonl_channel] into a file, past the
   sink's 64 KiB drain threshold several times, with one event (a
   round's inputs at 3,000 servers) larger than the whole buffer.
   After a flush the file holds whole drained batches and not the
   rest; after close, exactly the oracle's lines. *)
let test_jsonl_sink_drains_match_oracle () =
  let st = Random.State.make [| 24 |] in
  let random n =
    List.init n (fun _ -> QCheck.Gen.generate1 ~rand:st event_gen)
  in
  let big =
    Obs.Event.Span_begin
      {
        time = 3.5;
        id = 7;
        parent = Some 6;
        name = "tune";
        cat = "round";
        server = None;
        file_set = None;
        epoch = Some 2;
        attrs =
          [
            Obs.Event.Average 0.0371;
            Obs.Event.Inputs
              (List.init 3000 (fun i ->
                   {
                     Obs.Event.server = i;
                     mean_latency = 0.001 *. float_of_int i;
                     max_latency = 1.0 /. float_of_int (i + 3);
                     requests = i * 7;
                     queue_depth = i mod 13;
                   }));
          ];
      }
  in
  let events = random 1500 @ [ big ] @ random 1500 in
  let expected =
    String.concat ""
      (List.map (fun e -> Obs_oracle.event_to_jsonl e ^ "\n") events)
  in
  check_bool "crosses the drain threshold several times" true
    (String.length expected > 4 * 65536);
  check_bool "one event larger than the buffer" true
    (String.length (Obs_oracle.event_to_jsonl big) > 65536);
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Sink.jsonl_channel oc in
      List.iter sink.Obs.Sink.emit events;
      (* Until [flush] returns the helper may still be encoding, and
         what has reached the file depends on how far it got. *)
      sink.Obs.Sink.flush ();
      flush oc;
      let drained = read_file path in
      check_bool "drained batches reached the file" true
        (String.length drained > 0);
      check_bool "the last batch waits for close" true
        (String.length drained < String.length expected);
      check_bool "what was drained is a prefix of the oracle" true
        (String.equal drained
           (String.sub expected 0 (String.length drained)));
      sink.Obs.Sink.close ();
      close_out oc;
      let written = read_file path in
      check_int "close writes every event" (String.length expected)
        (String.length written);
      check_bool "file equals the oracle's lines" true
        (String.equal expected written))

(* A round's tune span at [servers] servers: one line of about 95
   bytes per server. *)
let tune_span ~servers =
  Obs.Event.Span_begin
    {
      time = 3.5;
      id = 7;
      parent = Some 6;
      name = "tune";
      cat = "round";
      server = None;
      file_set = None;
      epoch = Some 2;
      attrs =
        [
          Obs.Event.Inputs
            (List.init servers (fun i ->
                 {
                   Obs.Event.server = i;
                   mean_latency = 0.001 *. float_of_int i;
                   max_latency = 1.0 /. float_of_int (i + 3);
                   requests = i * 7;
                   queue_depth = i mod 13;
                 }));
        ];
    }

(* Through the helper where a spare core allows one: 10,001 events
   after the 64 encoded inline fill 155 blocks of 64 lines, wrapping
   the ring of four blocks 38 times, and the flush publishes the 17
   lines of the last, partial block.  Two rare events are larger than
   a block's 16 KiB writer, one of them larger than the whole 64 KiB
   buffer.  The helper polls the sink until the flush and no longer
   (then it parks), and the bytes are the oracle's. *)
let test_jsonl_sink_helper_path () =
  Helper_wait.quiesce ();
  let st = Random.State.make [| 25 |] in
  let random n =
    List.init n (fun _ -> QCheck.Gen.generate1 ~rand:st event_gen)
  in
  let big = tune_span ~servers:1_000 and block_sized = tune_span ~servers:300 in
  check_bool "one event larger than the buffer" true
    (String.length (Obs_oracle.event_to_jsonl big) > 65536);
  check_bool "one larger than a block's writer only" true
    (String.length (Obs_oracle.event_to_jsonl block_sized) > 16384
    && String.length (Obs_oracle.event_to_jsonl block_sized) < 65536);
  let events =
    random 3_000 @ [ big ] @ random 3_000 @ [ block_sized ] @ random 3_999
  in
  check_int "a partial block at the flush" 17 ((List.length events - 64) mod 64);
  let after = random 10 in
  let expected =
    String.concat ""
      (List.map
         (fun e -> Obs_oracle.event_to_jsonl e ^ "\n")
         (events @ after))
  in
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Sink.jsonl_channel oc in
      List.iter sink.Obs.Sink.emit events;
      check_bool "the helper runs where it can" (Par.Helper.available ())
        (Par.Helper.running ());
      sink.Obs.Sink.flush ();
      check_bool "the flush released the helper" false
        (Par.Helper.running ());
      (* Set-up again: a flushed sink encodes on the caller until its
         next 64 events. *)
      List.iter sink.Obs.Sink.emit after;
      check_bool "no helper for the first events after a flush" false
        (Par.Helper.running ());
      sink.Obs.Sink.close ();
      close_out oc;
      check_bool "file equals the oracle's lines" true
        (String.equal expected (read_file path)))

(* The channel closed under a sink whose helper still has events to
   write: the write error reaches the emitter, at an emit, the flush or
   the close, and nothing hangs.  Then the same where the emitter meets
   the error itself: a poller that holds the helper for 0.2 s keeps the
   sink's poller from running, so the emitter, finding every block
   taken, encodes blocks and appends them to the buffer, whose drain
   fails. *)
let test_jsonl_sink_helper_error () =
  Helper_wait.quiesce ();
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Sink.jsonl_channel oc in
      let raised = ref 0 in
      let call f = try f () with Sys_error _ -> incr raised in
      for _ = 1 to 64 do
        sink.Obs.Sink.emit (tune_span ~servers:1)
      done;
      close_out oc;
      (* More than the 64 KiB buffer, in fewer events than the ring
         holds, so the helper drains to the closed channel. *)
      for _ = 1 to 4 do
        call (fun () -> sink.Obs.Sink.emit (tune_span ~servers:300))
      done;
      if Par.Helper.available () then Unix.sleepf 0.05;
      call sink.Obs.Sink.flush;
      check_bool "the write error reached the emitter" true (!raised > 0);
      check_bool "no helper left running" false (Par.Helper.running ());
      call sink.Obs.Sink.close;
      call sink.Obs.Sink.close);
  Helper_wait.quiesce ();
  let until = Unix.gettimeofday () +. 0.2 in
  let hold () =
    while Unix.gettimeofday () < until do
      Domain.cpu_relax ()
    done;
    Par.Helper.Finished
  in
  let holder = Par.Helper.attach hold in
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let sink = Obs.Sink.jsonl_channel oc in
      close_out oc;
      let at_emit = ref 0 and elsewhere = ref 0 in
      let call count f = try f () with Sys_error _ -> incr count in
      (* About 200 bytes each: the buffer drains after some 20 blocks. *)
      for _ = 1 to 3_000 do
        call at_emit (fun () -> sink.Obs.Sink.emit (tune_span ~servers:1))
      done;
      call elsewhere sink.Obs.Sink.flush;
      check_bool "the emitter's write error reached an emit" true
        (!at_emit > 0);
      Option.iter
        (fun h ->
          check_bool "the holder has finished" true
            (Helper_wait.eventually (fun () -> not (Par.Helper.attached h))))
        holder;
      check_bool "no helper left running" false (Par.Helper.running ());
      call elsewhere sink.Obs.Sink.close;
      call elsewhere sink.Obs.Sink.close)

(* A context with sinks has one emitting domain: an emit, a request
   record or a flush from a second domain raises [Invalid_argument]
   before reaching a sink, and the trace written so far (events and
   records, across the helper's ring) stays a valid prefix. *)
let test_ctx_second_emitting_domain () =
  Helper_wait.quiesce ();
  let mark i =
    Obs.Event.Rehash_round
      { time = float_of_int i; trigger = "main"; checked = i; moved = 0 }
  in
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let ctx = Obs.Ctx.create ~sinks:[ Obs.Sink.jsonl_channel oc ] () in
      let requests =
        Obs.Span.Request.create ctx ~clock:[| 1.5 |] ~file_sets:[| "fs" |]
          ~ops:[| "open" |]
      in
      for i = 1 to 300 do
        Obs.Ctx.emit ctx (mark i);
        ignore (Obs.Span.Request.begin_ requests ~fs:0 ~client:i ~op:0 : int)
      done;
      let refused f =
        match f () with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let from_other_domain =
        Domain.join
          (Domain.spawn (fun () ->
               [
                 refused (fun () -> Obs.Ctx.emit ctx (mark 0));
                 refused (fun () ->
                     ignore
                       (Obs.Span.Request.begin_ requests ~fs:0 ~client:0 ~op:0
                         : int));
                 refused (fun () -> Obs.Ctx.flush ctx);
               ]))
      in
      Alcotest.(check (list bool))
        "emit, record and flush refused" [ true; true; true ] from_other_domain;
      Obs.Ctx.emit ctx (mark 301);
      Obs.Ctx.flush ctx;
      Obs.Ctx.close ctx;
      close_out oc;
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' (read_file path))
      in
      check_int "every line of the emitting domain" 601 (List.length lines);
      List.iteri
        (fun n line ->
          match Obs.Event.of_jsonl line with
          | Ok (Obs.Event.Rehash_round { checked; _ }) ->
            check_int "events in order" ((n / 2) + 1) checked
          | Ok (Obs.Event.Span_begin { id; attrs; _ }) ->
            check_int "records in order" ((n / 2) + 1) id;
            check_bool "the record's client" true
              (List.mem (Obs.Event.Client id) attrs)
          | Ok _ -> Alcotest.fail "an event nobody emitted"
          | Error err -> Alcotest.failf "line failed to parse: %s" err)
        lines)

(* --- Chrome sink --- *)

let test_chrome_file_valid_json () =
  with_temp_file (fun path ->
      let sink = Obs.Sink.chrome_file path in
      List.iter sink.Obs.Sink.emit sample_events;
      sink.Obs.Sink.close ();
      let body = String.trim (read_file path) in
      check_bool "opens with [" true (String.length body > 0 && body.[0] = '[');
      check_bool "closes with ]" true
        (body.[String.length body - 1] = ']');
      match Obs.Json.of_string body with
      | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
      | Ok (Obs.Json.List records) ->
        check_bool "has records" true (List.length records > 0);
        List.iter
          (fun r ->
            let phase = Obs.Json.(to_str (member "ph" r)) in
            check_bool "record has a phase" true (phase <> None);
            check_bool "record has a pid" true
              (Obs.Json.(to_int (member "pid" r)) <> None))
          records;
        (* Every lifecycle is a span, so spans become async begin/end
           pairs carrying the span id, and nothing else is a slice. *)
        let phase ph =
          List.filter
            (fun r -> Obs.Json.(to_str (member "ph" r)) = Some ph)
            records
        in
        let spans which =
          List.length
            (List.filter
               (fun e ->
                 match (which, e) with
                 | `Begin, Obs.Event.Span_begin _ | `End, Obs.Event.Span_end _
                   ->
                   true
                 | _ -> false)
               sample_events)
        in
        check_int "no X slices" 0 (List.length (phase "X"));
        check_int "one b record per span begin" (spans `Begin)
          (List.length (phase "b"));
        check_int "one e record per span end" (spans `End)
          (List.length (phase "e"));
        (* The tune span's inputs and regions also draw as counter
           tracks: two input sets, one non-empty region set. *)
        Alcotest.(check (list (option string)))
          "counter tracks"
          [ Some "queue-depth"; Some "region-measure"; Some "queue-depth" ]
          (List.map (fun r -> Obs.Json.(to_str (member "name" r))) (phase "C"));
        (* A move's source and phases land in its b record's args. *)
        (match
           List.filter
             (fun r -> Obs.Json.(to_str (member "name" r)) = Some "move")
             (phase "b")
         with
        | b :: _ ->
          let args = Obs.Json.member "args" b in
          Alcotest.(check (option int))
            "src in args" (Some 1)
            Obs.Json.(to_int (member "src" args));
          Alcotest.(check (option (float 0.0)))
            "flush in args" (Some 0.5)
            Obs.Json.(to_float (member "flush_s" args))
        | [] -> Alcotest.fail "expected a move b record");
        (* The request span's attributes land in its b record's args. *)
        (match
           List.filter
             (fun r -> Obs.Json.(to_str (member "name" r)) = Some "request")
             (phase "b")
         with
        | [ b ] ->
          let args = Obs.Json.member "args" b in
          Alcotest.(check (option string))
            "op in args" (Some "open")
            Obs.Json.(to_str (member "op" args));
          Alcotest.(check (option int))
            "client in args" (Some 3)
            Obs.Json.(to_int (member "client" args))
        | bs ->
          Alcotest.failf "expected one request b record, got %d"
            (List.length bs));
        List.iter
          (fun r ->
            check_bool "async record carries the span id" true
              (Obs.Json.(to_str (member "id" r)) <> None))
          (phase "b" @ phase "e")
      | Ok _ -> Alcotest.fail "chrome trace is not a JSON array")

let test_chrome_empty_trace_valid () =
  with_temp_file (fun path ->
      let sink = Obs.Sink.chrome_file path in
      sink.Obs.Sink.close ();
      match Obs.Json.of_string (read_file path) with
      | Ok (Obs.Json.List []) -> ()
      | Ok _ -> Alcotest.fail "expected an empty array"
      | Error e -> Alcotest.failf "empty trace invalid: %s" e)

(* --- Metrics --- *)

let test_counter_gauge () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "c" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 4;
  check_int "counter" 5 (Obs.Metrics.Counter.value c);
  let c' = Obs.Metrics.counter m "c" in
  Obs.Metrics.Counter.incr c';
  check_int "registration idempotent" 6 (Obs.Metrics.Counter.value c);
  let g = Obs.Metrics.gauge m "g" in
  Obs.Metrics.Gauge.set g 2.5;
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Obs.Metrics.Gauge.value g);
  Obs.Metrics.reset m;
  check_int "reset zeroes counters" 0 (Obs.Metrics.Counter.value c);
  Alcotest.(check (float 0.0))
    "reset zeroes gauges" 0.0 (Obs.Metrics.Gauge.value g)

(* Recording allocates nothing: 10,000 histogram observations of
   boxed values (a list holds them, as callers' records do) and as
   many integer gauge sets. *)
let rec record_all h g i = function
  | [] -> ()
  | x :: rest ->
    Obs.Metrics.Histogram.observe h x;
    Obs.Metrics.Gauge.set_int g i;
    record_all h g (i + 1) rest

let test_metrics_allocate_nothing () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "latency"
  and g = Obs.Metrics.gauge m "depth" in
  let xs =
    List.init 10_000 (fun i -> 1e-5 +. (0.001 *. float_of_int (i mod 997)))
  in
  let before = Gc.minor_words () in
  record_all h g 0 xs;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before);
  check_int "every observation counted" 10_000
    (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9))
    "sum" (List.fold_left ( +. ) 0.0 xs)
    (Obs.Metrics.Histogram.sum h);
  Alcotest.(check (float 0.0))
    "max" (List.fold_left Float.max 0.0 xs)
    (Obs.Metrics.Histogram.max_value h);
  Alcotest.(check (float 0.0))
    "last gauge set" 9999.0 (Obs.Metrics.Gauge.value g)

(* The histogram estimates percentiles by interpolating within the
   bucket that holds the target rank, so against the exact retained-
   sample percentile the error is bounded by one bucket width. *)
let test_histogram_percentiles_vs_stat () =
  let bounds = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~bounds m "h" in
  let sample = Desim.Stat.Sample.create () in
  let rng = Desim.Rng.create 11 in
  for _ = 1 to 5_000 do
    (* Skewed over [0, 100): squaring concentrates mass near zero, so
       the test covers sparsely- and densely-populated buckets. *)
    let u = Desim.Rng.float rng in
    let x = u *. u *. 100.0 in
    Obs.Metrics.Histogram.observe h x;
    Desim.Stat.Sample.add sample x
  done;
  check_int "counts agree" (Desim.Stat.Sample.count sample)
    (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9))
    "means agree"
    (Desim.Stat.Sample.mean sample)
    (Obs.Metrics.Histogram.mean h);
  Alcotest.(check (float 1e-9))
    "max agrees"
    (Desim.Stat.Sample.max_value sample)
    (Obs.Metrics.Histogram.max_value h);
  List.iter
    (fun p ->
      let exact = Desim.Stat.Sample.percentile sample p in
      let approx = Obs.Metrics.Histogram.percentile h p in
      check_bool
        (Printf.sprintf "p%.0f within one bucket (exact %.3f, approx %.3f)" p
           exact approx)
        true
        (abs_float (exact -. approx) <= 1.0 +. 1e-9))
    [ 10.0; 50.0; 90.0; 95.0; 99.0 ]

let test_histogram_overflow_and_empty () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram ~bounds:[| 1.0; 2.0 |] m "h" in
  Alcotest.(check (float 0.0))
    "empty percentile" 0.0
    (Obs.Metrics.Histogram.percentile h 50.0);
  (* Values beyond the last bound land in the overflow bucket; the
     percentile clamps to the observed max rather than inventing an
     upper edge. *)
  List.iter (Obs.Metrics.Histogram.observe h) [ 5.0; 6.0; 7.0 ];
  Alcotest.(check (float 1e-9))
    "overflow percentile clamps to max" 7.0
    (Obs.Metrics.Histogram.percentile h 99.0);
  Alcotest.(check (float 1e-9))
    "min tracked" 5.0
    (Obs.Metrics.Histogram.min_value h)

let test_snapshot_sorted () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.Counter.incr (Obs.Metrics.counter m "zeta");
  Obs.Metrics.Counter.incr (Obs.Metrics.counter m "alpha");
  Obs.Metrics.Histogram.observe (Obs.Metrics.histogram m "lat") 0.5;
  let snap = Obs.Metrics.snapshot m in
  Alcotest.(check (list string))
    "counters sorted" [ "alpha"; "zeta" ]
    (List.map fst snap.Obs.Metrics.counters);
  check_int "histogram present" 1 (List.length snap.Obs.Metrics.histograms);
  (* pp_snapshot must render without raising. *)
  ignore (Format.asprintf "%a" Obs.Metrics.pp_snapshot snap)

(* --- Ctx --- *)

let test_ctx_null_and_fanout () =
  check_bool "null not tracing" false (Obs.Ctx.tracing Obs.Ctx.null);
  check_bool "null has no metrics" true (Obs.Ctx.metrics Obs.Ctx.null = None);
  Obs.Ctx.emit Obs.Ctx.null (nth_request 1);
  (* emit fans out to every sink in order *)
  let r1 = Obs.Sink.Ring.create ~capacity:8 in
  let r2 = Obs.Sink.Ring.create ~capacity:8 in
  let ctx =
    Obs.Ctx.create
      ~sinks:[ Obs.Sink.Ring.sink r1; Obs.Sink.Ring.sink r2 ]
      ()
  in
  check_bool "tracing with sinks" true (Obs.Ctx.tracing ctx);
  Obs.Ctx.emit ctx (nth_request 2);
  check_int "first sink saw it" 1 (Obs.Sink.Ring.length r1);
  check_int "second sink saw it" 1 (Obs.Sink.Ring.length r2);
  Obs.Ctx.close ctx

(* --- Runner integration --- *)

let small_trace =
  Workload.Synthetic.generate
    {
      Workload.Synthetic.default_config with
      Workload.Synthetic.file_sets = 40;
      requests = 4_000;
      duration = 2_000.0;
    }

let count_kind events kind =
  List.length (List.filter (fun e -> Obs.Event.kind e = kind) events)

let count_spans ~name which events =
  List.length
    (List.filter
       (fun e ->
         match (which, e) with
         | `Begin, Obs.Event.Span_begin { name = n; _ }
         | `End, Obs.Event.Span_end { name = n; _ } -> n = name
         | _ -> false)
       events)

let count_request_spans which events = count_spans ~name:"request" which events

let test_runner_emits_rounds_and_requests () =
  let ring = Obs.Sink.Ring.create ~capacity:50_000 in
  let metrics = Obs.Metrics.create () in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] ~metrics () in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~obs ()
  in
  let events = Obs.Sink.Ring.contents ring in
  check_int "nothing evicted" 0 (Obs.Sink.Ring.dropped ring);
  (* The instrumentation contract: exactly one round span per
     reconfiguration interval (2000 s / 120 s = 16). *)
  check_int "one round span per interval" r.Experiments.Runner.reconfig_rounds
    (count_spans ~name:"round" `Begin events);
  check_int "expected 16 rounds on this trace" 16
    r.Experiments.Runner.reconfig_rounds;
  check_int "one request span begin per request"
    r.Experiments.Runner.submitted
    (count_request_spans `Begin events);
  check_int "one request span end per completion"
    r.Experiments.Runner.completed
    (count_request_spans `End events);
  check_int "one rehash sweep per round" r.Experiments.Runner.reconfig_rounds
    (count_kind events "rehash_round");
  check_int "move spans paired"
    (count_spans ~name:"move" `Begin events)
    (count_spans ~name:"move" `End events);
  (* Each round is numbered on its span; its tune stage opens with
     every server's input and closes with (for ANU) the tuned region
     measures. *)
  Alcotest.(check (list int))
    "rounds numbered 1..16"
    (List.init 16 (fun i -> i + 1))
    (List.concat_map
       (function
         | Obs.Event.Span_begin { name = "round"; attrs; _ } ->
           List.filter_map
             (function Obs.Event.Round n -> Some n | _ -> None)
             attrs
         | _ -> [])
       events);
  List.iter
    (fun e ->
      match e with
      | Obs.Event.Span_begin { name = "tune"; attrs; _ } -> (
        match attrs with
        | [ Obs.Event.Average _; Obs.Event.Inputs inputs ] ->
          check_int "inputs from all five servers" 5 (List.length inputs)
        | _ -> Alcotest.fail "tune begin carries the average and inputs")
      | Obs.Event.Span_end { name = "tune"; attrs; _ } -> (
        match attrs with
        | [ Obs.Event.Regions regions ] ->
          check_int "regions for all five servers" 5 (List.length regions)
        | _ -> Alcotest.fail "tune end carries the regions")
      | _ -> ())
    events;
  (* Metrics agree with the result's own bookkeeping. *)
  match r.Experiments.Runner.metrics with
  | None -> Alcotest.fail "expected a metrics snapshot"
  | Some snap ->
    let counter name =
      match List.assoc_opt name snap.Obs.Metrics.counters with
      | Some v -> v
      | None -> Alcotest.failf "missing counter %s" name
    in
    check_int "requests.submitted" r.Experiments.Runner.submitted
      (counter "requests.submitted");
    check_int "requests.completed" r.Experiments.Runner.completed
      (counter "requests.completed");
    check_int "moves.started"
      (List.length r.Experiments.Runner.moves)
      (counter "moves.started");
    let latency =
      match List.assoc_opt "request.latency" snap.Obs.Metrics.histograms with
      | Some h -> h
      | None -> Alcotest.fail "missing request.latency histogram"
    in
    check_int "latency histogram count" r.Experiments.Runner.completed
      latency.Obs.Metrics.count;
    check_bool "latency p95 sane" true
      (latency.Obs.Metrics.p95 > 0.0
      && latency.Obs.Metrics.p95 <= latency.Obs.Metrics.max)

let test_runner_membership_events () =
  let ring = Obs.Sink.Ring.create ~capacity:50_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let events_script =
    [
      { Experiments.Runner.at = 500.0; action = Experiments.Runner.Fail 4 };
      { Experiments.Runner.at = 900.0; action = Experiments.Runner.Recover 4 };
    ]
  in
  let (_ : Experiments.Runner.result) =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~events:events_script ~obs ()
  in
  let events = Obs.Sink.Ring.contents ring in
  let membership =
    List.filter_map
      (function
        | Obs.Event.Membership { server; change; _ } -> Some (server, change)
        | _ -> None)
      events
  in
  Alcotest.(check bool)
    "fail then recover observed" true
    (membership = [ (4, Obs.Event.Failed); (4, Obs.Event.Recovered) ]);
  let rehash_triggers =
    List.filter_map
      (function
        | Obs.Event.Rehash_round { trigger; _ } -> Some trigger | _ -> None)
      events
  in
  check_bool "fail triggers a rehash sweep" true
    (List.mem "fail" rehash_triggers);
  check_bool "recover triggers a rehash sweep" true
    (List.mem "recover" rehash_triggers)

let test_runner_unobserved_unchanged () =
  (* The null context must not perturb the simulation. *)
  let spec = Experiments.Scenario.Anu Placement.Anu.default_config in
  let plain =
    Experiments.Runner.run Experiments.Scenario.default spec
      ~trace:small_trace ()
  in
  let ring = Obs.Sink.Ring.create ~capacity:50_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let observed =
    Experiments.Runner.run Experiments.Scenario.default spec
      ~trace:small_trace ~obs ()
  in
  Alcotest.(check (float 1e-12))
    "identical means" plain.Experiments.Runner.overall_mean
    observed.Experiments.Runner.overall_mean;
  check_int "identical moves"
    (List.length plain.Experiments.Runner.moves)
    (List.length observed.Experiments.Runner.moves);
  check_bool "plain run has no metrics" true
    (plain.Experiments.Runner.metrics = None)

(* The sink's helper work allocates nothing: a probe polled on the
   helper beside the sink's poller reads the helper domain's own
   allocation counter at its first pass and again once the traced run
   has ended, before the flush drops the sink's poller (a drop
   allocates), and finds it unchanged. *)
let test_jsonl_sink_helper_allocates_nothing () =
  Helper_wait.quiesce ();
  let words = Float.Array.make 2 0.0 in
  let started = ref false and stop = Atomic.make false in
  let probe () =
    if not !started then begin
      Float.Array.set words 0 (Gc.minor_words ());
      started := true
    end;
    if Atomic.get stop then begin
      Float.Array.set words 1 (Gc.minor_words ());
      Par.Helper.Finished
    end
    else Par.Helper.Idle
  in
  match Par.Helper.attach probe with
  | None ->
    check_bool "no helper without a spare core" false
      (Par.Helper.available ())
  | Some p ->
    let oc = open_out_bin "/dev/null" in
    let sink = Obs.Sink.jsonl_channel oc in
    let flush () =
      Atomic.set stop true;
      check_bool "the probe read the counter twice" true
        (Helper_wait.eventually (fun () -> not (Par.Helper.attached p)));
      sink.Obs.Sink.flush ()
    in
    let obs = Obs.Ctx.create ~sinks:[ { sink with Obs.Sink.flush } ] () in
    let r =
      Experiments.Runner.run Experiments.Scenario.default
        (Experiments.Scenario.Anu Placement.Anu.default_config)
        ~trace:small_trace ~obs ()
    in
    Obs.Ctx.close obs;
    close_out oc;
    check_int "every request served" r.Experiments.Runner.submitted
      r.Experiments.Runner.completed;
    check_bool "the helper stopped" false (Par.Helper.running ());
    Alcotest.(check (float 0.0))
      "helper words allocated" 0.0
      (Float.Array.get words 1 -. Float.Array.get words 0)

(* --- End to end: the JSONL sink against the oracle on real runs --- *)

(* Run [f] with a context writing through [Obs.Sink.jsonl_channel] to a
   temp file and into a ring; the file must be the ring's events
   rendered by the oracle, line for line and byte for byte.  Returns the
   events. *)
let jsonl_matches_oracle f =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let ring = Obs.Sink.Ring.create ~capacity:400_000 in
      let obs =
        Obs.Ctx.create
          ~sinks:[ Obs.Sink.jsonl_channel oc; Obs.Sink.Ring.sink ring ]
          ()
      in
      f obs;
      Obs.Ctx.close obs;
      close_out oc;
      check_int "nothing evicted" 0 (Obs.Sink.Ring.dropped ring);
      let events = Obs.Sink.Ring.contents ring in
      let written = String.split_on_char '\n' (read_file path) in
      let expected =
        List.map Obs_oracle.event_to_jsonl events @ [ "" ]
      in
      check_int "one line per event" (List.length expected)
        (List.length written);
      List.iteri
        (fun i (want, got) ->
          if not (String.equal want got) then
            Alcotest.failf "line %d differs:\n  oracle %s\n  sink   %s"
              (i + 1) want got)
        (List.combine expected written);
      events)

let kinds_of events =
  List.sort_uniq String.compare (List.map Obs.Event.kind events)

let test_e2e_fig6_stream_bytes () =
  let events =
    jsonl_matches_oracle (fun obs ->
        ignore (Experiments.Figures.fig6_stream ~requests:2000 ~obs ()))
  in
  check_bool "spans and rounds traced" true
    (List.for_all
       (fun k -> List.mem k (kinds_of events))
       [ "span_begin"; "span_end" ]
    && count_spans ~name:"round" `Begin events > 0);
  check_bool "requests traced as spans" true
    (count_request_spans `Begin events > 0
    && count_request_spans `Begin events = count_request_spans `End events)

let test_e2e_partition_mix_bytes () =
  let trace =
    Workload.Synthetic.generate
      {
        Workload.Synthetic.default_config with
        requests = 1500;
        file_sets = 40;
        duration = 1200.0;
        seed = 11;
      }
  in
  let events =
    jsonl_matches_oracle (fun obs ->
        ignore
          (Experiments.Runner.run Experiments.Scenario.default
             (Experiments.Scenario.Anu Placement.Anu.default_config)
             ~trace ~obs
             ~faults:(Fault.Plan.partition_mix ~seed:42 ~duration:1200.0)
             ()))
  in
  List.iter
    (fun k ->
      check_bool (k ^ " events traced") true (List.mem k (kinds_of events)))
    [ "fault"; "fence"; "ledger_replay" ];
  List.iter
    (fun name ->
      check_bool (name ^ " spans traced") true
        (count_spans ~name `Begin events > 0))
    [ "move"; "partition" ]

(* --- Request lifecycle: spans only --- *)

(* Per request span id: the request's begin, and its children's begin
   and end times by stage name (the last of each, so a redelivered
   request keeps its final stages). *)
type lifecycle = {
  req_begin : float;
  mutable req_end : float option;
  mutable stages : (string * (float * float option)) list;
}

let lifecycles events =
  let reqs : (int, lifecycle) Hashtbl.t = Hashtbl.create 1024 in
  let stage_of : (int, int * string * float) Hashtbl.t =
    Hashtbl.create 1024
  in
  List.iter
    (function
      | Obs.Event.Span_begin { id; name = "request"; time; _ } ->
        Hashtbl.replace reqs id
          { req_begin = time; req_end = None; stages = [] }
      | Obs.Event.Span_begin
          { id; parent = Some p; name; cat = "request"; time; _ } -> (
        Hashtbl.replace stage_of id (p, name, time);
        match Hashtbl.find_opt reqs p with
        | Some l -> l.stages <- (name, (time, None)) :: l.stages
        | None -> ())
      | Obs.Event.Span_end { id; name = "request"; time; _ } -> (
        match Hashtbl.find_opt reqs id with
        | Some l -> l.req_end <- Some time
        | None -> ())
      | Obs.Event.Span_end { id; cat = "request"; time; _ } -> (
        match Hashtbl.find_opt stage_of id with
        | Some (p, name, b) -> (
          match Hashtbl.find_opt reqs p with
          | Some l ->
            l.stages <-
              (name, (b, Some time))
              :: List.filter
                   (fun (n, (b', _)) -> not (n = name && b' = b))
                   l.stages
          | None -> ())
        | None -> ())
      | _ -> ())
    events;
  reqs

let check_request_attrs events =
  List.iter
    (function
      | Obs.Event.Span_begin { name = "request"; attrs; _ } ->
        check_bool "request begin carries client then op" true
          (match attrs with
          | [ Obs.Event.Client _; Obs.Event.Op _ ] -> true
          | _ -> false)
      | Obs.Event.Span_begin { cat = "request"; attrs; _ } ->
        check_bool "request stages carry no attributes" true (attrs = [])
      | Obs.Event.Span_end { cat = "request"; attrs; _ } ->
        check_bool "request ends carry no attributes" true (attrs = [])
      | _ -> ())
    events

let check_queue_widths events =
  let opened = Hashtbl.create 1024 in
  List.iter
    (function
      | Obs.Event.Span_begin { id; name = "queue"; time; _ } ->
        Hashtbl.replace opened id time
      | Obs.Event.Span_end { id; name = "queue"; time; _ } ->
        check_bool "queue span has positive width" true
          (time > Hashtbl.find opened id)
      | _ -> ())
    events

let test_request_lifecycle_fault_free () =
  with_temp_file (fun path ->
      let ring = Obs.Sink.Ring.create ~capacity:50_000 in
      let obs =
        Obs.Ctx.create
          ~sinks:[ Obs.Sink.Ring.sink ring; Obs.Sink.jsonl_file path ]
          ()
      in
      let cluster = ref None in
      let r =
        Experiments.Runner.run Experiments.Scenario.default
          (Experiments.Scenario.Anu Placement.Anu.default_config)
          ~trace:small_trace ~obs
          ~on_cluster:(fun c -> cluster := Some c)
          ()
      in
      Obs.Ctx.close obs;
      let events = Obs.Sink.Ring.contents ring in
      check_int "nothing evicted" 0 (Obs.Sink.Ring.dropped ring);
      check_int "one request begin per submitted request"
        r.Experiments.Runner.submitted
        (count_request_spans `Begin events);
      check_int "one request end per completed request"
        r.Experiments.Runner.completed
        (count_request_spans `End events);
      check_request_attrs events;
      check_queue_widths events;
      (* The stage rule: a request is delivered when it is submitted,
         or when its buffered stage ends.  A service stage exists
         exactly when the request was buffered or queued (no request
         is redelivered without faults); a queue stage exists exactly
         when service starts after delivery, and then spans delivery
         to service start.  A request with no stage was in service for
         its whole width. *)
      let queued = ref 0 and stageless = ref 0 in
      Hashtbl.iter
        (fun _ l ->
          if l.req_end <> None then begin
            let stage n = List.assoc_opt n l.stages in
            let waited = stage "buffered" <> None || stage "queue" <> None in
            match stage "service" with
            | None ->
              incr stageless;
              check_bool "no service stage: the request never waited" false
                waited;
              check_int "no service stage: no stage at all" 0
                (List.length l.stages)
            | Some (_, None) -> Alcotest.fail "unclosed service span"
            | Some (service_start, Some _) -> (
              check_bool "a service stage: the request waited" true waited;
              let delivered =
                match stage "buffered" with
                | Some (_, Some e) -> e
                | _ -> l.req_begin
              in
              match stage "queue" with
              | Some (qb, Some qe) ->
                incr queued;
                check_bool "queue opens at delivery" true (qb = delivered);
                check_bool "queue closes at service start" true
                  (qe = service_start);
                check_bool "service started after delivery" true
                  (service_start > delivered)
              | Some (_, None) -> Alcotest.fail "unclosed queue span"
              | None ->
                check_bool "no queue span: service starts at delivery" true
                  (service_start = delivered))
          end)
        (lifecycles events);
      check_bool "some requests queued" true (!queued > 0);
      check_bool "most did not" true
        (!queued < r.Experiments.Runner.completed / 2);
      check_bool "most requests have no stage" true
        (!stageless > r.Experiments.Runner.completed / 2);
      (* Exact oracle: stations serve nothing but requests, so the
         service time forensics attributes, derived or explicit, is the
         stations' busy time. *)
      let busy =
        match !cluster with
        | None -> Alcotest.fail "on_cluster never ran"
        | Some c ->
          List.fold_left
            (fun acc srv -> acc +. Sharedfs.Server.utilization srv ~until:1.0)
            0.0 (Sharedfs.Cluster.servers c)
      in
      let service =
        match Experiments.Forensics.load path with
        | Error msg -> Alcotest.fail msg
        | Ok t ->
          (Experiments.Forensics.analyze t).Experiments.Forensics.attribution
            .service_seconds
      in
      check_bool
        (Printf.sprintf "forensics service %.17g = busy time %.17g" service
           busy)
        true
        (Float.abs (service -. busy) <= 1e-9 *. busy))

let test_request_lifecycle_partition_mix () =
  let trace =
    Workload.Synthetic.generate
      {
        Workload.Synthetic.default_config with
        requests = 1500;
        file_sets = 40;
        duration = 1200.0;
        seed = 11;
      }
  in
  let ring = Obs.Sink.Ring.create ~capacity:50_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace ~obs
      ~faults:(Fault.Plan.partition_mix ~seed:42 ~duration:1200.0)
      ()
  in
  let events = Obs.Sink.Ring.contents ring in
  check_int "nothing evicted" 0 (Obs.Sink.Ring.dropped ring);
  check_bool "faults fired" true
    (List.exists
       (function
         | Obs.Event.Fault _ | Obs.Event.Span_begin { cat = "fault"; _ } ->
           true
         | _ -> false)
       events);
  check_int "one request begin per submitted request"
    r.Experiments.Runner.submitted
    (count_request_spans `Begin events);
  check_int "one request end per completed request"
    r.Experiments.Runner.completed
    (count_request_spans `End events);
  check_request_attrs events;
  check_queue_widths events

(* A crash-interrupted request goes back to an orphan queue with no
   stage of its own.  Its redelivery to an idle server must still write
   a service stage, or forensics would count the time lost to the
   crash as service. *)
let test_request_lifecycle_redelivery () =
  let module C = Sharedfs.Cluster in
  let id = Sharedfs.Server_id.of_int in
  let ring = Obs.Sink.Ring.create ~capacity:1_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let sim = Desim.Sim.create () in
  let cluster =
    C.create sim
      ~disk:(Sharedfs.Shared_disk.create ())
      ~catalog:(Sharedfs.File_set.Catalog.create [ "a" ])
      ~series_interval:10.0
      ~servers:[ (id 0, 1.0); (id 1, 1.0) ]
      ~obs ()
  in
  C.assign_initial cluster [ ("a", id 0) ];
  let completed = ref 0 in
  Completions.submit (Completions.install cluster) ~base_demand:100.0
    {
      Sharedfs.Request.op = Sharedfs.Request.Open_file;
      file_set = "a";
      path_hash = 1;
      client = 0;
    }
    ~on_complete:(fun ~latency:_ -> incr completed);
  let (_ : Desim.Sim.handle) =
    Desim.Sim.schedule_at sim ~time:1.0 (fun () ->
        let (_ : string list) = C.fail_server cluster (id 0) in
        C.move cluster ~file_set:"a" ~dst:(id 1))
  in
  Desim.Sim.run sim;
  check_int "served after the crash" 1 !completed;
  match
    Hashtbl.fold (fun _ l acc -> l :: acc) (lifecycles (Obs.Sink.Ring.contents ring)) []
  with
  | [ { req_end = Some e; stages = [ ("service", (b, Some e')) ]; _ } ] ->
    check_bool "service starts after the crash" true (b > 1.0);
    check_bool "service ends with the request" true (e = e')
  | _ -> Alcotest.fail "expected one completed request with one service stage"

(* A crash with plain and lock requests in service and queued: the
   server's slots are re-buffered behind the orphaned sets and
   redelivered once the sets are adopted.  Every request completes
   exactly once, each redelivered request writes a service stage that
   starts after the crash, and the conservation ledger balances at every
   probe, with the requests it holds counted where they are. *)
let test_crash_redelivers_plain_and_lock_slots () =
  let module C = Sharedfs.Cluster in
  let module R = Sharedfs.Request in
  let id = Sharedfs.Server_id.of_int in
  let ring = Obs.Sink.Ring.create ~capacity:1_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let sim = Desim.Sim.create () in
  let cluster =
    C.create sim
      ~disk:(Sharedfs.Shared_disk.create ())
      ~catalog:(Sharedfs.File_set.Catalog.create [ "a"; "b" ])
      ~series_interval:10.0
      ~servers:[ (id 0, 1.0); (id 1, 1.0) ]
      ~obs ()
  in
  C.assign_initial cluster [ ("a", id 0); ("b", id 0) ];
  (* Each request has its own client, so completions name it. *)
  let completions = Array.make 6 0 in
  C.set_sink cluster (fun ~fs:_ ~op:_ ~path_hash:_ ~client ~latency:_ ->
      completions.(client) <- completions.(client) + 1);
  let submit ~client ~op ~path_hash name demand =
    C.submit cluster ~fs:(C.fs_id cluster name) ~op ~base_demand:demand
      ~path_hash ~client
  in
  (* Path hash 4 asks for an exclusive lock. *)
  submit ~client:0 ~op:R.Open_file ~path_hash:1 "a" 2.0;
  submit ~client:1 ~op:R.Lock_acquire ~path_hash:4 "a" 0.1;
  submit ~client:2 ~op:R.Stat ~path_hash:2 "b" 0.1;
  submit ~client:3 ~op:R.Lock_acquire ~path_hash:4 "a" 0.1;
  submit ~client:4 ~op:R.Lock_release ~path_hash:4 "a" 0.1;
  let ledger = ref [] in
  let probe () = ledger := C.conservation cluster :: !ledger in
  let at time f =
    ignore (Desim.Sim.schedule_at sim ~time f : Desim.Sim.handle)
  in
  at 0.5 probe;
  at 1.0 (fun () ->
      probe ();
      let (_ : string list) = C.fail_server cluster (id 0) in
      probe ();
      C.move cluster ~file_set:"a" ~dst:(id 1);
      C.move cluster ~file_set:"b" ~dst:(id 1));
  (* Arrives while [a] is orphaned: buffered, never redelivered. *)
  at 2.0 (fun () ->
      submit ~client:5 ~op:R.Stat ~path_hash:3 "a" 0.1;
      probe ());
  (* Client 3 queues behind client 1's exclusive hold until its lease
     runs out, 30 s after the grant. *)
  List.iter (fun i -> at (10.0 +. (2.0 *. float_of_int i)) probe)
    (List.init 30 Fun.id);
  Desim.Sim.run sim;
  probe ();
  Alcotest.(check (array int)) "each request completes exactly once"
    (Array.make 6 1) completions;
  check_int "the crash re-buffered five requests" 5
    (C.requests_rebuffered cluster);
  let ledger = List.rev !ledger in
  List.iter
    (fun (c : C.conservation) ->
      check_int "conservation balances" c.submitted
        (c.completed + c.inflight + c.buffered + c.lock_waiting))
    ledger;
  (match ledger with
  | before :: at_crash :: after_crash :: _ ->
    check_int "five at the server before the crash" 5 before.C.inflight;
    check_int "still five at the crash" 5 at_crash.C.inflight;
    check_int "none at a server after it" 0 after_crash.C.inflight;
    check_int "all five buffered after it" 5 after_crash.C.buffered
  | _ -> Alcotest.fail "expected the probes around the crash");
  check_bool "a lock wait was seen" true
    (List.exists (fun (c : C.conservation) -> c.lock_waiting > 0) ledger);
  let final = List.nth ledger (List.length ledger - 1) in
  check_int "everything completed" 6 final.C.completed;
  check_int "nothing parked" 0
    (final.C.inflight + final.C.buffered + final.C.lock_waiting);
  (* The five requests at the dead server began before the crash; each
     writes a service stage on its redelivery. *)
  let lives =
    Hashtbl.fold (fun _ l acc -> l :: acc)
      (lifecycles (Obs.Sink.Ring.contents ring)) []
  in
  check_int "six request spans" 6 (List.length lives);
  let redelivered = List.filter (fun l -> l.req_begin < 1.0) lives in
  check_int "five redelivered" 5 (List.length redelivered);
  List.iter
    (fun l ->
      match List.assoc_opt "service" l.stages with
      | Some (b, Some _) ->
        check_bool "service starts after the crash" true (b > 1.0)
      | Some (_, None) | None ->
        Alcotest.fail "a redelivered request without a service stage")
    redelivered

(* Attributes survive the JSONL round trip and render like the oracle,
   on a real run's request spans. *)
let test_request_attrs_round_trip () =
  let events =
    jsonl_matches_oracle (fun obs ->
        ignore (Experiments.Figures.fig6_stream ~requests:500 ~obs ()))
  in
  let with_attrs =
    List.filter
      (function
        | Obs.Event.Span_begin { attrs = _ :: _; _ } -> true | _ -> false)
      events
  in
  check_bool "request spans carry attributes" true (with_attrs <> []);
  List.iter
    (fun e ->
      let line = Obs.Event.to_jsonl e in
      check_string "writer equals oracle" (Obs_oracle.event_to_jsonl e) line;
      match Obs.Event.of_jsonl line with
      | Ok e' -> Alcotest.check event_t "round-trips" e e'
      | Error err -> Alcotest.failf "reparse failed: %s" err)
    with_attrs;
  (* A span without attributes keeps the old line: no attrs field. *)
  List.iter
    (function
      | Obs.Event.Span_begin { attrs = []; _ } as e ->
        check_bool "no attrs field" true
          (match Obs.Json.of_string (Obs.Event.to_jsonl e) with
          | Ok (Obs.Json.Obj fields) -> not (List.mem_assoc "attrs" fields)
          | _ -> false)
      | _ -> ())
    events

(* --- Fault and move spans: one record per lifecycle --- *)

(* A figure's runs traced into one ring, split at each run's root
   span: span ids are unique within a run only. *)
let traced_runs figure =
  let ring = Obs.Sink.Ring.create ~capacity:200_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  (match Experiments.Figures.by_id figure with
  | Some run -> ignore (run ~quick:true ~obs ())
  | None -> Alcotest.failf "no figure %s" figure);
  Obs.Ctx.close obs;
  check_int (figure ^ ": nothing evicted") 0 (Obs.Sink.Ring.dropped ring);
  List.fold_left
    (fun runs e ->
      match (e, runs) with
      | Obs.Event.Span_begin { name = "run"; _ }, _ -> [ e ] :: runs
      | _, run :: rest -> (e :: run) :: rest
      | _, [] -> Alcotest.failf "%s: event before the run span" figure)
    []
    (Obs.Sink.Ring.contents ring)
  |> List.rev_map List.rev

let is_window_cat cat = cat = "fault" || cat = "move"

(* Every fault and move span that begins ends once, with its begin's
   name and category, or is still open when its run ends; no end
   closes a span that never began. *)
let check_pairs figure run =
  let open_ = Hashtbl.create 64 in
  List.iter
    (function
      | Obs.Event.Span_begin { id; name; cat; _ } when is_window_cat cat ->
        if Hashtbl.mem open_ id then
          Alcotest.failf "%s: span %d begins twice" figure id;
        Hashtbl.replace open_ id (name, cat)
      | Obs.Event.Span_end { id; name; cat; _ } when is_window_cat cat -> (
        match Hashtbl.find_opt open_ id with
        | Some (n, c) ->
          Alcotest.(check (pair string string))
            (Printf.sprintf "%s: span %d ends as it began" figure id)
            (n, c) (name, cat);
          Hashtbl.remove open_ id
        | None -> Alcotest.failf "%s: span %d ends without a begin" figure id)
      | _ -> ())
    run

let fault_begins run =
  List.filter_map
    (function
      | Obs.Event.Span_begin { time; cat = "fault"; attrs; _ } ->
        Some (time, attrs)
      | _ -> None)
    run

let test_fault_and_move_spans_pair () =
  let traced =
    List.map
      (fun figure -> (figure, traced_runs figure))
      [ "failure-recovery-chaos"; "partition-chaos"; "domain-failure-collateral" ]
  in
  List.iter
    (fun (figure, runs) ->
      check_bool (figure ^ ": several runs") true (List.length runs > 1);
      List.iter (check_pairs figure) runs;
      check_bool (figure ^ ": fault windows traced") true
        (List.exists (fun run -> fault_begins run <> []) runs))
    traced;
  (* A domain fault opens one span that names the domain and its
     size, and no member opens a span of its own at that instant. *)
  let domain_spans = ref 0 in
  List.iter
    (fun run ->
      let begins = fault_begins run in
      List.iter
        (fun (time, attrs) ->
          if List.exists (function Obs.Event.Domain _ -> true | _ -> false) attrs
          then begin
            incr domain_spans;
            check_bool "domain span names its size" true
              (List.exists
                 (function Obs.Event.Members n -> n >= 1 | _ -> false)
                 attrs);
            check_int "one fault span at the domain fault's instant" 1
              (List.length (List.filter (fun (t, _) -> t = time) begins))
          end)
        begins)
    (List.assoc "domain-failure-collateral" traced);
  check_bool "domain fault spans traced" true (!domain_spans > 0);
  (* A move cut short by a crash says which endpoint died. *)
  let interrupted = ref 0 in
  List.iter
    (List.iter (function
      | Obs.Event.Span_end
          { cat = "move"; outcome = Some "interrupted"; attrs; _ } ->
        incr interrupted;
        check_bool "interrupted move carries its role" true
          (attrs = [ Obs.Event.Role "src" ] || attrs = [ Obs.Event.Role "dst" ])
      | _ -> ()))
    (List.assoc "failure-recovery-chaos" traced);
  check_bool "moves interrupted" true (!interrupted > 0)

(* A fault counter counts the window edges the trace shows, no more: a
   crash of a server that is already down opens no window and counts
   nothing. *)
let test_fault_counters_match_windows () =
  let ring = Obs.Sink.Ring.create ~capacity:200_000 in
  let obs =
    Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ]
      ~metrics:(Obs.Metrics.create ()) ()
  in
  let figure =
    match Experiments.Figures.by_id "failure-recovery-chaos" with
    | Some run -> run ~quick:true ~obs ()
    | None -> Alcotest.fail "no figure failure-recovery-chaos"
  in
  let runs =
    List.fold_left
      (fun runs e ->
        match (e, runs) with
        | Obs.Event.Span_begin { name = "run"; _ }, _ -> [ e ] :: runs
        | _, run :: rest -> (e :: run) :: rest
        | _, [] -> runs)
      [] (Obs.Sink.Ring.contents ring)
  in
  let results = figure.Experiments.Figures.results in
  check_int "one trace per run" (List.length results) (List.length runs);
  let crashes =
    List.map2
      (fun (r : Experiments.Runner.result) run ->
        let counter name =
          match r.metrics with
          | None -> 0
          | Some snap ->
            Option.value ~default:0
              (List.assoc_opt ("fault." ^ name) snap.Obs.Metrics.counters)
        in
        let edges closing =
          List.length
            (List.filter
               (function
                 | Obs.Event.Span_begin { cat = "fault"; name = "crash"; _ } ->
                   not closing
                 | Obs.Event.Span_end { cat = "fault"; name = "crash"; _ } ->
                   closing
                 | _ -> false)
               run)
        in
        check_int (r.policy_name ^ ": server_crash counts crash spans")
          (edges false) (counter "server_crash");
        check_int (r.policy_name ^ ": server_recover counts their ends")
          (edges true) (counter "server_recover");
        edges false)
      results (List.rev runs)
  in
  check_int "four crash windows over both runs" 4
    (List.fold_left ( + ) 0 crashes)

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json escapes and errors" `Quick test_json_parse_escapes;
    Alcotest.test_case "event jsonl round-trip" `Quick
      test_event_jsonl_round_trip;
    Alcotest.test_case "event kinds distinct" `Quick test_event_kinds_distinct;
    Alcotest.test_case "event decode errors" `Quick test_event_of_jsonl_errors;
    Alcotest.test_case "json numbers match the Printf oracle" `Quick
      test_number_fixed_cases;
    QCheck_alcotest.to_alcotest prop_number_random_bits;
    QCheck_alcotest.to_alcotest prop_number_fast_range;
    Alcotest.test_case "json numbers: exact-renderer edge table" `Quick
      test_number_exact_table;
    Alcotest.test_case "json numbers render without allocating" `Quick
      test_number_render_allocates_nothing;
    Alcotest.test_case "number memo sequences" `Quick
      test_memo_fixed_sequences;
    QCheck_alcotest.to_alcotest prop_memo_sequences;
    Alcotest.test_case "event writer matches the tree oracle" `Quick
      test_writer_matches_oracle;
    QCheck_alcotest.to_alcotest prop_writer_matches_oracle;
    Alcotest.test_case "jsonl sink bytes: fig6 stream" `Quick
      test_e2e_fig6_stream_bytes;
    Alcotest.test_case "jsonl sink bytes: partition mix" `Quick
      test_e2e_partition_mix_bytes;
    Alcotest.test_case "ring capacity and eviction" `Quick
      test_ring_capacity_eviction;
    Alcotest.test_case "jsonl file sink" `Quick test_jsonl_file_sink;
    Alcotest.test_case "jsonl sink buffers until close" `Quick
      test_jsonl_sink_buffers_until_close;
    Alcotest.test_case "jsonl sink bytes across drains" `Quick
      test_jsonl_sink_drains_match_oracle;
    Alcotest.test_case "jsonl sink: helper path bytes and lifetime" `Quick
      test_jsonl_sink_helper_path;
    Alcotest.test_case "jsonl sink: helper write error reaches emitter"
      `Quick test_jsonl_sink_helper_error;
    Alcotest.test_case "jsonl sink: helper work allocates nothing" `Quick
      test_jsonl_sink_helper_allocates_nothing;
    Alcotest.test_case "ctx: a second emitting domain is refused" `Quick
      test_ctx_second_emitting_domain;
    Alcotest.test_case "chrome trace valid json" `Quick
      test_chrome_file_valid_json;
    Alcotest.test_case "chrome empty trace valid" `Quick
      test_chrome_empty_trace_valid;
    Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
    Alcotest.test_case "metrics record without allocating" `Quick
      test_metrics_allocate_nothing;
    Alcotest.test_case "histogram percentiles vs Stat" `Quick
      test_histogram_percentiles_vs_stat;
    Alcotest.test_case "histogram overflow and empty" `Quick
      test_histogram_overflow_and_empty;
    Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
    Alcotest.test_case "ctx null and fan-out" `Quick test_ctx_null_and_fanout;
    Alcotest.test_case "runner emits rounds and requests" `Quick
      test_runner_emits_rounds_and_requests;
    Alcotest.test_case "runner membership events" `Quick
      test_runner_membership_events;
    Alcotest.test_case "unobserved run unchanged" `Quick
      test_runner_unobserved_unchanged;
    Alcotest.test_case "request lifecycle: fault-free spans" `Quick
      test_request_lifecycle_fault_free;
    Alcotest.test_case "request lifecycle: partition-mix spans" `Quick
      test_request_lifecycle_partition_mix;
    Alcotest.test_case "request lifecycle: redelivery writes service" `Quick
      test_request_lifecycle_redelivery;
    Alcotest.test_case "crash redelivers plain and lock slots" `Quick
      test_crash_redelivers_plain_and_lock_slots;
    Alcotest.test_case "request attributes round-trip" `Quick
      test_request_attrs_round_trip;
    Alcotest.test_case "fault and move spans pair up" `Quick
      test_fault_and_move_spans_pair;
    Alcotest.test_case "fault counters match their windows" `Quick
      test_fault_counters_match_windows;
  ]
