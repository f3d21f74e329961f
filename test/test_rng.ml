(* Rng: determinism, distribution moments, split independence. *)

open Desim

let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let moments f n =
  let w = Welford.create () in
  for _ = 1 to n do
    Welford.add w (f ())
  done;
  (Welford.mean w, Welford.std_dev w)

let test_determinism () =
  let a = Rng.create 17 and b = Rng.create 17 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_different_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "no collisions" 0 !same

let test_copy_preserves_state () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check_bool "copy continues identically" true (Rng.bits64 a = Rng.bits64 b)

let test_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* The split stream must differ from the parent's continuation. *)
  let differs = ref false in
  for _ = 1 to 16 do
    if Rng.bits64 a <> Rng.bits64 b then differs := true
  done;
  check_bool "differs" true !differs

let test_float_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_float_moments () =
  let rng = Rng.create 4 in
  let mean, sd = moments (fun () -> Rng.float rng) 50_000 in
  check_float 0.01 "mean 1/2" 0.5 mean;
  check_float 0.01 "sd 1/sqrt12" (1.0 /. sqrt 12.0) sd

let test_int_bounds () =
  let rng = Rng.create 6 in
  let counts = Array.make 7 0 in
  for _ = 1 to 14_000 do
    let k = Rng.int rng 7 in
    if k < 0 || k >= 7 then Alcotest.fail "int out of range";
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      if c < 1_600 || c > 2_400 then
        Alcotest.failf "uniformity suspicious: bucket count %d" c)
    counts

let test_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_exponential_moments () =
  let rng = Rng.create 7 in
  let mean, sd = moments (fun () -> Rng.exponential rng ~mean:2.0) 50_000 in
  check_float 0.06 "mean" 2.0 mean;
  check_float 0.08 "sd = mean" 2.0 sd

let test_erlang_moments () =
  let rng = Rng.create 8 in
  let shape = 4 in
  let mean, sd = moments (fun () -> Rng.erlang rng ~shape ~mean:1.0) 50_000 in
  check_float 0.02 "mean" 1.0 mean;
  (* CV of Erlang-k is 1/sqrt k. *)
  check_float 0.02 "sd" (1.0 /. sqrt (float_of_int shape)) sd

let test_normal_moments () =
  let rng = Rng.create 9 in
  let mean, sd = moments (fun () -> Rng.normal rng ~mu:3.0 ~sigma:2.0) 50_000 in
  check_float 0.05 "mean" 3.0 mean;
  check_float 0.05 "sd" 2.0 sd

let test_gamma_moments () =
  let rng = Rng.create 10 in
  let shape = 3.0 and scale = 2.0 in
  let mean, sd =
    moments (fun () -> Rng.gamma rng ~shape ~scale) 50_000
  in
  check_float 0.1 "mean" (shape *. scale) mean;
  check_float 0.15 "sd" (sqrt shape *. scale) sd

let test_gamma_small_shape () =
  let rng = Rng.create 11 in
  let mean, _ = moments (fun () -> Rng.gamma rng ~shape:0.5 ~scale:1.0) 50_000 in
  check_float 0.05 "mean" 0.5 mean

let test_poisson_small_mean () =
  let rng = Rng.create 12 in
  let mean, sd =
    moments (fun () -> float_of_int (Rng.poisson rng ~mean:3.0)) 50_000
  in
  check_float 0.06 "mean" 3.0 mean;
  check_float 0.06 "sd = sqrt mean" (sqrt 3.0) sd

let test_poisson_large_mean () =
  let rng = Rng.create 13 in
  let mean, _ =
    moments (fun () -> float_of_int (Rng.poisson rng ~mean:100.0)) 20_000
  in
  check_float 0.5 "mean" 100.0 mean

let test_poisson_zero () =
  let rng = Rng.create 14 in
  Alcotest.(check int) "zero mean" 0 (Rng.poisson rng ~mean:0.0)

let test_pareto_minimum () =
  let rng = Rng.create 15 in
  for _ = 1 to 10_000 do
    if Rng.pareto rng ~shape:2.0 ~scale:1.5 < 1.5 then
      Alcotest.fail "pareto below scale"
  done

let test_pareto_mean () =
  let rng = Rng.create 16 in
  (* Mean = scale * shape / (shape - 1) for shape > 1. *)
  let mean, _ = moments (fun () -> Rng.pareto rng ~shape:3.0 ~scale:1.0) 100_000 in
  check_float 0.05 "mean" 1.5 mean

let test_zipf_bounds_and_skew () =
  let rng = Rng.create 17 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let k = Rng.zipf rng ~n:10 ~s:1.0 in
    if k < 1 || k > 10 then Alcotest.fail "zipf out of range";
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  check_bool "rank 1 most frequent" true (counts.(0) > counts.(4));
  check_bool "monotone-ish" true (counts.(0) > counts.(9));
  (* Rank 1 to rank 2 ratio should be near 2 for s = 1. *)
  let ratio = float_of_int counts.(0) /. float_of_int counts.(1) in
  check_float 0.2 "harmonic ratio" 2.0 ratio

let test_shuffle_is_permutation () =
  let rng = Rng.create 18 in
  let arr = Array.init 100 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_choose () =
  let rng = Rng.create 19 in
  let arr = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    if not (Array.mem (Rng.choose rng arr) arr) then
      Alcotest.fail "choose outside array"
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

(* The unboxed draws are the boxed ones, bit for bit: [bits53] scaled
   is [float], and [erlang_into] stores what [erlang] returns. *)
let test_unboxed_draws_agree () =
  let a = Rng.create 29 and b = Rng.create 29 in
  let cell = [| nan; nan |] in
  let same x y =
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  in
  for i = 1 to 1_000 do
    let u = Rng.float a in
    let v = float_of_int (Rng.bits53 b) *. Rng.unit_of_bits53 in
    if not (same u v) then
      Alcotest.failf "draw %d: float %h <> bits53 %h" i u v;
    let e = Rng.erlang a ~shape:(1 + (i mod 5)) ~mean:0.1 in
    Rng.erlang_into b ~shape:(1 + (i mod 5)) ~mean:0.1 cell 1;
    if not (same e cell.(1)) then
      Alcotest.failf "draw %d: erlang %h <> erlang_into %h" i e cell.(1)
  done;
  Alcotest.(check bool) "other cells untouched" true (Float.is_nan cell.(0));
  Alcotest.check_raises "erlang names itself"
    (Invalid_argument "Rng.erlang: mean must be positive") (fun () ->
      ignore (Rng.erlang a ~shape:2 ~mean:0.0))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
    Alcotest.test_case "copy" `Quick test_copy_preserves_state;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "float moments" `Slow test_float_moments;
    Alcotest.test_case "int bounds and uniformity" `Slow test_int_bounds;
    Alcotest.test_case "int rejects bound<=0" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "exponential moments" `Slow test_exponential_moments;
    Alcotest.test_case "erlang moments" `Slow test_erlang_moments;
    Alcotest.test_case "unboxed draws agree" `Quick
      test_unboxed_draws_agree;
    Alcotest.test_case "normal moments" `Slow test_normal_moments;
    Alcotest.test_case "gamma moments" `Slow test_gamma_moments;
    Alcotest.test_case "gamma shape<1" `Slow test_gamma_small_shape;
    Alcotest.test_case "poisson small mean" `Slow test_poisson_small_mean;
    Alcotest.test_case "poisson large mean" `Slow test_poisson_large_mean;
    Alcotest.test_case "poisson zero mean" `Quick test_poisson_zero;
    Alcotest.test_case "pareto minimum" `Quick test_pareto_minimum;
    Alcotest.test_case "pareto mean" `Slow test_pareto_mean;
    Alcotest.test_case "zipf bounds and skew" `Slow test_zipf_bounds_and_skew;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "choose" `Quick test_choose;
  ]
