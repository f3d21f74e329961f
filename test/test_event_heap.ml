(* Event_heap: ordering, FIFO tie-breaking, structural invariant. *)

open Desim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_empty () =
  let h = Event_heap.create () in
  check_bool "empty" true (Event_heap.is_empty h);
  check_int "size" 0 (Event_heap.size h);
  Alcotest.(check (option (float 0.0))) "peek_time" None (Event_heap.peek_time h);
  check_bool "pop_opt" true (Event_heap.pop_opt h = None);
  Alcotest.check_raises "pop raises" Not_found (fun () ->
      ignore (Event_heap.pop h))

let test_single () =
  let h = Event_heap.create () in
  let (_ : int) = Event_heap.add h ~time:3.5 "a" in
  check_int "size" 1 (Event_heap.size h);
  Alcotest.(check (option (float 0.0)))
    "peek_time" (Some 3.5) (Event_heap.peek_time h);
  let t, _, v = Event_heap.pop h in
  Alcotest.(check (float 0.0)) "time" 3.5 t;
  Alcotest.(check string) "value" "a" v;
  check_bool "empty after pop" true (Event_heap.is_empty h)

let test_ordering () =
  let h = Event_heap.create () in
  List.iter
    (fun t -> ignore (Event_heap.add h ~time:t t))
    [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5 ]
  ;
  let popped = ref [] in
  while not (Event_heap.is_empty h) do
    let t, _, _ = Event_heap.pop h in
    popped := t :: !popped
  done;
  Alcotest.(check (list (float 0.0)))
    "ascending" [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !popped)

let test_fifo_ties () =
  let h = Event_heap.create () in
  List.iter (fun v -> ignore (Event_heap.add h ~time:1.0 v)) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> let _, _, v = Event_heap.pop h in v) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c" ] order

let test_peek_matches_pop () =
  let h = Event_heap.create () in
  List.iter (fun t -> ignore (Event_heap.add h ~time:t t)) [ 9.0; 2.0; 7.0 ];
  (match Event_heap.peek h with
  | Some (t, _, v) ->
    Alcotest.(check (float 0.0)) "peek time" 2.0 t;
    Alcotest.(check (float 0.0)) "peek value" 2.0 v
  | None -> Alcotest.fail "expected Some");
  check_int "peek does not remove" 3 (Event_heap.size h)

let test_nan_rejected () =
  let h = Event_heap.create () in
  Alcotest.check_raises "NaN" (Invalid_argument "Event_heap.add: NaN time")
    (fun () -> ignore (Event_heap.add h ~time:Float.nan ()))

let test_clear () =
  let h = Event_heap.create () in
  for i = 1 to 10 do
    ignore (Event_heap.add h ~time:(float_of_int i) i)
  done;
  Event_heap.clear h;
  check_bool "cleared" true (Event_heap.is_empty h)

let test_clear_keeps_sequence_monotonic () =
  (* Documented policy: clear does not reset the tie-break counter, so
     sequence numbers stay unique across the heap's lifetime. *)
  let h = Event_heap.create () in
  let s0 = Event_heap.add h ~time:1.0 "a" in
  let s1 = Event_heap.add h ~time:2.0 "b" in
  Event_heap.clear h;
  let s2 = Event_heap.add h ~time:0.5 "c" in
  check_bool "monotonic across clear" true (s0 < s1 && s1 < s2)

let test_compact_removes_only_filtered () =
  let h = Event_heap.create () in
  for i = 0 to 99 do
    ignore (Event_heap.add h ~time:(float_of_int (i mod 10)) i)
  done;
  Event_heap.compact h ~keep:(fun v -> v mod 2 = 0);
  check_int "half kept" 50 (Event_heap.size h);
  check_bool "invariant" true (Event_heap.check_invariant h);
  let drained = ref [] in
  while not (Event_heap.is_empty h) do
    let _, _, v = Event_heap.pop h in
    drained := v :: !drained
  done;
  let drained = List.rev !drained in
  check_bool "only survivors" true (List.for_all (fun v -> v mod 2 = 0) drained)

let prop_compact_preserves_pop_order =
  (* Popping everything after compact ~keep equals filtering the popped
     sequence of an identical uncompacted heap: (time, seq) keys — and
     therefore FIFO tie-breaking — survive compaction. *)
  QCheck.Test.make ~count:200 ~name:"compact preserves (time, seq) pop order"
    QCheck.(list (float_bound_exclusive 10.0))
    (fun times ->
      let fill () =
        let h = Event_heap.create () in
        List.iteri (fun i t -> ignore (Event_heap.add h ~time:t (i, t))) times;
        h
      in
      let drain h =
        let acc = ref [] in
        while not (Event_heap.is_empty h) do
          let t, s, v = Event_heap.pop h in
          acc := (t, s, v) :: !acc
        done;
        List.rev !acc
      in
      let keep (i, _) = i mod 3 <> 0 in
      let compacted = fill () in
      Event_heap.compact compacted ~keep;
      let reference = fill () in
      drain compacted
      = List.filter (fun (_, _, v) -> keep v) (drain reference)
      && Event_heap.check_invariant compacted)

let test_grow_beyond_initial_capacity () =
  let h = Event_heap.create () in
  for i = 1000 downto 1 do
    ignore (Event_heap.add h ~time:(float_of_int i) i)
  done;
  check_int "size" 1000 (Event_heap.size h);
  check_bool "invariant" true (Event_heap.check_invariant h);
  let first = ref max_int in
  let ok = ref true in
  let prev = ref neg_infinity in
  while not (Event_heap.is_empty h) do
    let t, _, v = Event_heap.pop h in
    if t < !prev then ok := false;
    prev := t;
    if v < !first then first := v
  done;
  check_bool "sorted drain" true !ok;
  check_int "min seen" 1 !first

let prop_heap_sorted =
  QCheck.Test.make ~count:300 ~name:"random adds pop in sorted order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> ignore (Event_heap.add h ~time:t t)) times;
      let ok = ref (Event_heap.check_invariant h) in
      let prev = ref neg_infinity in
      while not (Event_heap.is_empty h) do
        let t, _, _ = Event_heap.pop h in
        if t < !prev then ok := false;
        prev := t
      done;
      !ok)

let prop_interleaved =
  QCheck.Test.make ~count:200 ~name:"interleaved add/pop preserves invariant"
    QCheck.(list (pair bool (float_bound_exclusive 100.0)))
    (fun ops ->
      let h = Event_heap.create () in
      List.iter
        (fun (pop, t) ->
          if pop then ignore (Event_heap.pop_opt h)
          else ignore (Event_heap.add h ~time:t ()))
        ops;
      Event_heap.check_invariant h)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "single element" `Quick test_single;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO among equal times" `Quick test_fifo_ties;
    Alcotest.test_case "peek matches pop" `Quick test_peek_matches_pop;
    Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "clear keeps sequence monotonic" `Quick
      test_clear_keeps_sequence_monotonic;
    Alcotest.test_case "compact removes only filtered" `Quick
      test_compact_removes_only_filtered;
    Alcotest.test_case "growth" `Quick test_grow_beyond_initial_capacity;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_interleaved;
    QCheck_alcotest.to_alcotest prop_compact_preserves_pop_order;
  ]
