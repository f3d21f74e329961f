(* Obs: JSON codec, event round-trips, sinks, metrics, and the
   runner's instrumentation contract (one Delegate_round per
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
      };
    Obs.Event.Move_start
      {
        time = 120.0;
        file_set = "fs-003";
        src = Some 1;
        dst = 4;
        flush_seconds = 0.5;
        init_seconds = 1.25;
      };
    Obs.Event.Move_start
      {
        time = 121.0;
        file_set = "fs-orphan";
        src = None;
        dst = 0;
        flush_seconds = 0.0;
        init_seconds = 2.0;
      };
    Obs.Event.Move_end
      { time = 122.75; file_set = "fs-003"; dst = 4; replayed = 7 };
    Obs.Event.Delegate_round
      {
        time = 240.0;
        round = 2;
        delegate = Some 0;
        average = 0.042;
        inputs =
          [
            {
              Obs.Event.server = 0;
              mean_latency = 0.03;
              max_latency = 0.1;
              requests = 150;
              queue_depth = 2;
            };
            {
              Obs.Event.server = 1;
              mean_latency = 0.07;
              max_latency = 0.3;
              requests = 80;
              queue_depth = 5;
            };
          ];
        regions = [ (0, 0.31); (1, 0.19) ];
      };
    Obs.Event.Delegate_round
      {
        time = 360.0;
        round = 3;
        delegate = None;
        average = 0.0;
        inputs = [];
        regions = [];
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
        time = 970.0;
        server = Some 2;
        file_set = None;
        fault = Obs.Event.Server_crash;
      };
    Obs.Event.Fault
      {
        time = 971.0;
        server = Some 2;
        file_set = None;
        fault = Obs.Event.Server_recover;
      };
    Obs.Event.Fault
      {
        time = 972.0;
        server = None;
        file_set = None;
        fault = Obs.Event.Delegate_crash;
      };
    Obs.Event.Fault
      {
        time = 973.0;
        server = Some 1;
        file_set = None;
        fault = Obs.Event.Report_lost { attempt = 2 };
      };
    Obs.Event.Fault
      {
        time = 974.0;
        server = Some 1;
        file_set = None;
        fault = Obs.Event.Report_delayed { delay = 0.25 };
      };
    Obs.Event.Fault
      {
        time = 975.0;
        server = Some 3;
        file_set = Some "fs-004";
        fault = Obs.Event.Move_interrupted { role = "src" };
      };
    Obs.Event.Fault
      {
        time = 976.0;
        server = None;
        file_set = None;
        fault = Obs.Event.Disk_stall_start { factor = 4.0; duration = 30.0 };
      };
    Obs.Event.Fault
      {
        time = 977.0;
        server = None;
        file_set = None;
        fault = Obs.Event.Disk_stall_end;
      };
    Obs.Event.Round_degraded
      {
        time = 980.0;
        round = 8;
        missing = [ 1; 3 ];
        survivors = 3;
        skipped = false;
      };
    Obs.Event.Round_degraded
      {
        time = 990.0;
        round = 9;
        missing = [ 0; 1; 2 ];
        survivors = 0;
        skipped = true;
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
      };
    Obs.Event.Span_end
      {
        time = 1003.0;
        id = 18;
        name = "round";
        cat = "round";
        server = None;
        outcome = Some "applied";
      };
    Obs.Event.Fault
      {
        time = 1010.0;
        server = Some 0;
        file_set = None;
        fault = Obs.Event.Partition_cut { link = "cluster" };
      };
    Obs.Event.Fault
      {
        time = 1011.0;
        server = Some 0;
        file_set = None;
        fault = Obs.Event.Partition_healed { link = "cluster" };
      };
    Obs.Event.Fault
      {
        time = 1012.0;
        server = None;
        file_set = None;
        fault = Obs.Event.Ledger_torn { seq = 12 };
      };
    Obs.Event.Fault
      {
        time = 1013.0;
        server = None;
        file_set = None;
        fault = Obs.Event.Domain_crash { domain = "rack0"; members = 3 };
      };
    Obs.Event.Fault
      {
        time = 1014.0;
        server = None;
        file_set = None;
        fault = Obs.Event.Domain_recover { domain = "rack0"; members = 3 };
      };
    Obs.Event.Fault
      {
        time = 1015.0;
        server = None;
        file_set = None;
        fault =
          Obs.Event.Domain_partition_cut
            { domain = "rack1"; link = "disk"; members = 2 };
      };
    Obs.Event.Fault
      {
        time = 1016.0;
        server = None;
        file_set = None;
        fault =
          Obs.Event.Domain_partition_healed
            { domain = "rack1"; link = "disk"; members = 2 };
      };
    Obs.Event.Fence { time = 1020.0; server = 3; action = "fenced" };
    Obs.Event.Fence { time = 1020.5; server = 3; action = "write_rejected" };
    Obs.Event.Partition
      { time = 1021.0; server = 3; link = "disk"; healed = false };
    Obs.Event.Partition
      { time = 1022.0; server = 3; link = "disk"; healed = true };
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
  check_int "all thirteen kinds exercised" 13 (List.length kinds);
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
  (* The request lifecycle is spans only: the old duplicate records are
     unknown types now, reported by name. *)
  List.iter
    (fun kind ->
      Alcotest.(check (result reject string))
        (kind ^ " is unknown")
        (Error (Printf.sprintf "unknown event type %S" kind))
        (Result.map ignore
           (Obs.Event.of_jsonl
              (Printf.sprintf {|{"type":%S,"time":1,"file_set":"fs-1"}|} kind))))
    [ "request_submit"; "request_complete" ];
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
let rec add_numbers memo buf = function
  | [] -> ()
  | x :: rest ->
    Obs.Json.add_number memo buf x;
    add_numbers memo buf rest

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
  let memo = Obs.Json.memo () in
  let buf = Buffer.create (32 * 10_000) in
  let before = Gc.minor_words () in
  add_numbers memo buf xs;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (after -. before);
  check_string "same text as the oracle"
    (String.concat "" (List.map Obs_oracle.number_to_string xs))
    (Buffer.contents buf)

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

let add_number_text memo x =
  let buf = Buffer.create 32 in
  Obs.Json.add_number memo buf x;
  Buffer.contents buf

let prop_memo_sequences =
  QCheck.Test.make ~count:500
    ~name:"memoized number sequences match the oracle"
    QCheck.(
      make
        ~print:(fun xs ->
          String.concat "; " (List.map (Printf.sprintf "%h") xs))
        Gen.(list_size (1 -- 30) float_gen))
    (fun xs ->
      let memo = Obs.Json.memo () in
      List.for_all
        (fun x ->
          String.equal (add_number_text memo x) (Obs_oracle.number_to_string x))
        xs)

let test_memo_fixed_sequences () =
  let memo = Obs.Json.memo () in
  List.iter
    (List.iter (fun x ->
         check_string (Printf.sprintf "%h" x) (Obs_oracle.number_to_string x)
           (add_number_text memo x)))
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
  (* The same samples through one shared memo, as a sink writes them. *)
  let memo = Some (Obs.Json.memo ()) in
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Obs.Event.write_jsonl ?memo buf e;
      Buffer.add_char buf '\n')
    sample_events;
  check_string "one buffer, one memo"
    (String.concat ""
       (List.map (fun e -> Obs_oracle.event_to_jsonl e ^ "\n") sample_events))
    (Buffer.contents buf)

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
        oneofl E.[ Server_crash; Server_recover; Delegate_crash; Disk_stall_end ];
        map (fun attempt -> E.Report_lost { attempt }) num;
        map (fun delay -> E.Report_delayed { delay }) float_gen;
        map (fun role -> E.Move_interrupted { role }) str;
        map2
          (fun factor duration -> E.Disk_stall_start { factor; duration })
          float_gen float_gen;
        map (fun link -> E.Partition_cut { link }) str;
        map (fun link -> E.Partition_healed { link }) str;
        map (fun seq -> E.Ledger_torn { seq }) num;
        map2 (fun domain members -> E.Domain_crash { domain; members }) str num;
        map2
          (fun domain members -> E.Domain_recover { domain; members })
          str num;
        map3
          (fun domain link members ->
            E.Domain_partition_cut { domain; link; members })
          str str num;
        map3
          (fun domain link members ->
            E.Domain_partition_healed { domain; link; members })
          str str num;
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
  let* time = float_gen in
  oneof
    [
      (let* file_set = str and* src = option num and* dst = num
       and* flush_seconds = float_gen and* init_seconds = float_gen in
       return
         (E.Move_start
            { time; file_set; src; dst; flush_seconds; init_seconds }));
      (let* file_set = str and* dst = num and* replayed = num in
       return (E.Move_end { time; file_set; dst; replayed }));
      (let* round = num and* delegate = option num and* average = float_gen
       and* inputs = list_size (0 -- 3) input
       and* regions = list_size (0 -- 3) (pair num float_gen) in
       return
         (E.Delegate_round { time; round; delegate; average; inputs; regions }));
      (let* server = num and* change = change in
       return (E.Membership { time; server; change }));
      (let* trigger = str and* checked = num and* moved = num in
       return (E.Rehash_round { time; trigger; checked; moved }));
      (let* server = option num and* file_set = option str
       and* fault = fault in
       return (E.Fault { time; server; file_set; fault }));
      (let* round = num and* missing = list_size (0 -- 4) num
       and* survivors = num and* skipped = bool in
       return
         (E.Round_degraded { time; round; missing; survivors; skipped }));
      (let* server = num and* action = str in
       return (E.Fence { time; server; action }));
      (let* server = num and* link = str and* healed = bool in
       return (E.Partition { time; server; link; healed }));
      (let* records = num and* torn = num and* repaired = num
       and* divergent = num in
       return (E.Ledger_replay { time; records; torn; repaired; divergent }));
      (let* what = str in
       return (E.Invariant_violation { time; what }));
      (let* id = num and* parent = option num and* name = str and* cat = str
       and* server = option num and* file_set = option str
       and* epoch = option num
       and* attrs =
         list_size (0 -- 3)
           (oneof
              [ map (fun op -> E.Op op) str; map (fun c -> E.Client c) num ])
       in
       return
         (E.Span_begin
            { time; id; parent; name; cat; server; file_set; epoch; attrs }));
      (let* id = num and* name = str and* cat = str
       and* server = option num and* outcome = option str in
       return (E.Span_end { time; id; name; cat; server; outcome }));
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
      let memo = Some (Obs.Json.memo ()) in
      List.for_all
        (fun e ->
          let buf = Buffer.create 256 in
          Obs.Event.write_jsonl ?memo buf e;
          String.equal (Buffer.contents buf) (Obs_oracle.event_to_jsonl e))
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
        (* Moves appear as complete slices with microsecond
           timestamps; requests only as spans. *)
        let slices =
          List.filter
            (fun r -> Obs.Json.(to_str (member "ph" r)) = Some "X")
            records
        in
        check_int "one X slice per move start" 2 (List.length slices);
        (* Spans become async begin/end pairs carrying the span id. *)
        let phase ph =
          List.filter
            (fun r -> Obs.Json.(to_str (member "ph" r)) = Some ph)
            records
        in
        check_int "one b record per span begin" 3 (List.length (phase "b"));
        check_int "one e record per span end" 3 (List.length (phase "e"));
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

let count_request_spans which events =
  List.length
    (List.filter
       (fun e ->
         match (which, e) with
         | `Begin, Obs.Event.Span_begin { name = "request"; _ }
         | `End, Obs.Event.Span_end { name = "request"; _ } -> true
         | _ -> false)
       events)

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
  (* The instrumentation contract: exactly one Delegate_round event per
     reconfiguration interval (2000 s / 120 s = 16). *)
  check_int "one Delegate_round per interval" r.Experiments.Runner.reconfig_rounds
    (count_kind events "delegate_round");
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
  check_int "move events paired"
    (count_kind events "move_start")
    (count_kind events "move_end");
  (* Delegate rounds carry per-server inputs and (for ANU) the tuned
     region measures. *)
  List.iter
    (fun e ->
      match e with
      | Obs.Event.Delegate_round { inputs; regions; delegate; _ } ->
        check_int "inputs from all five servers" 5 (List.length inputs);
        check_int "regions for all five servers" 5 (List.length regions);
        check_bool "delegate elected" true (delegate <> None)
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
       [ "span_begin"; "span_end"; "delegate_round" ]);
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
    [
      "fault"; "fence"; "ledger_replay"; "move_start"; "move_end"; "partition";
    ]

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
      | Obs.Event.Span_begin { attrs; _ } ->
        check_bool "other spans carry no attributes" true (attrs = [])
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
  let ring = Obs.Sink.Ring.create ~capacity:50_000 in
  let obs = Obs.Ctx.create ~sinks:[ Obs.Sink.Ring.sink ring ] () in
  let r =
    Experiments.Runner.run Experiments.Scenario.default
      (Experiments.Scenario.Anu Placement.Anu.default_config)
      ~trace:small_trace ~obs ()
  in
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
  (* The queue rule: a request is delivered when it is submitted, or
     when its buffered stage ends; a queue stage exists exactly when
     service starts after delivery, and then spans delivery to service
     start. *)
  let queued = ref 0 in
  Hashtbl.iter
    (fun _ l ->
      if l.req_end <> None then begin
        let stage n = List.assoc_opt n l.stages in
        let delivered =
          match stage "buffered" with
          | Some (_, Some e) -> e
          | _ -> l.req_begin
        in
        let service_start =
          match stage "service" with
          | Some (b, Some _) -> b
          | _ -> Alcotest.fail "completed request without a closed service"
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
            (service_start = delivered)
      end)
    (lifecycles events);
  check_bool "some requests queued" true (!queued > 0);
  check_bool "most did not" true
    (!queued < r.Experiments.Runner.completed / 2)

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
    (List.exists (function Obs.Event.Fault _ -> true | _ -> false) events);
  check_int "one request begin per submitted request"
    r.Experiments.Runner.submitted
    (count_request_spans `Begin events);
  check_int "one request end per completed request"
    r.Experiments.Runner.completed
    (count_request_spans `End events);
  check_request_attrs events;
  check_queue_widths events

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
    Alcotest.test_case "chrome trace valid json" `Quick
      test_chrome_file_valid_json;
    Alcotest.test_case "chrome empty trace valid" `Quick
      test_chrome_empty_trace_valid;
    Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
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
    Alcotest.test_case "request attributes round-trip" `Quick
      test_request_attrs_round_trip;
  ]
