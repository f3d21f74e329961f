(* SplitMix64 with the 64-bit counter stored as raw float bits.

   OCaml without flambda boxes every [Int64] that crosses a function
   boundary or lands in a mutable record field, which made each draw
   allocate ~100 bytes — the single largest allocation source in
   workload generation.  An all-float record stores its fields flat, so
   keeping [state] and [gamma] as [Int64.float_of_bits] images makes
   the store free, and the [@@unboxed] externals behind
   [Int64.bits_of_float] / [float_of_bits] let the compiler keep the
   whole mixing chain in registers inside a single function body.  The
   bit patterns — and therefore every stream ever drawn — are
   unchanged; only the representation moved.

   The two words sit in the middle of a block of 16 floats, so that
   their cache lines hold nothing else: the stream prefetch helper
   draws, several times per row, from a generator the engine
   allocated, and an engine object that shared its line made `stream`
   lose 15% to a layout change elsewhere in the program. *)

type t = float array

let state = 7 (* [gamma] is word 8 *)

let make s g =
  let t = Array.make 16 0.0 in
  t.(state) <- s;
  t.(state + 1) <- g;
  t

let[@inline] state_of t = Array.unsafe_get t state

let[@inline] gamma_of t = Array.unsafe_get t (state + 1)

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from MurmurHash3 / SplitMix64: full avalanche of a 64-bit
   word. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Gamma values must be odd; this mixer (variant used by Java's
   SplittableRandom) derives new gammas for split streams. *)
let mix_gamma z =
  let z = Int64.logor (mix64 z) 1L in
  let n = Int64.logxor z (Int64.shift_right_logical z 1) in
  (* Force enough bit transitions for a good gamma. *)
  let popcount x =
    let rec go acc x =
      if Int64.equal x 0L then acc
      else go (acc + 1) (Int64.logand x (Int64.sub x 1L))
    in
    go 0 x
  in
  if popcount n < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let create seed =
  make
    (Int64.float_of_bits (mix64 (Int64.of_int seed)))
    (Int64.float_of_bits golden_gamma)

let copy t = make (state_of t) (gamma_of t)

let next_state t =
  let s =
    Int64.add (Int64.bits_of_float (state_of t))
      (Int64.bits_of_float (gamma_of t))
  in
  Array.unsafe_set t state (Int64.float_of_bits s);
  s

let split t =
  let s = next_state t in
  let g = next_state t in
  make (Int64.float_of_bits (mix64 s)) (Int64.float_of_bits (mix_gamma g))

(* The SplitMix64 core: advance the counter and mix.  [@inline] keeps
   the int64 chain unboxed in registers inside each draw below. *)
let[@inline] mixed t =
  let s =
    Int64.add (Int64.bits_of_float (state_of t))
      (Int64.bits_of_float (gamma_of t))
  in
  Array.unsafe_set t state (Int64.float_of_bits s);
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The 53 high bits as an [int]: an [int] result crosses a function
   boundary unboxed, so callers in other modules (compiled [-opaque],
   hence never inlined into) draw without allocating. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (mixed t) 11)

let unit_of_bits53 = 1.0 /. 9007199254740992.0

(* 53 high-quality bits into [0,1); every distribution below reduces to
   this. *)
let float t = Stdlib.float_of_int (bits53 t) *. unit_of_bits53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: floating multiply is unbiased
     enough for bounds far below 2^53. *)
  let u = Stdlib.float_of_int (bits53 t) *. unit_of_bits53 in
  let r = int_of_float (u *. Stdlib.float_of_int bound) in
  if r >= bound then bound - 1 else r

let bits64 t = mixed t

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (mixed t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t in
  -.mean *. log u

let normal t ~mu ~sigma =
  let rec draw () =
    let u1 = float t in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t in
      mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let rec gamma t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Rng.gamma: shape and scale must be positive";
  if shape < 1.0 then
    (* Boost: Gamma(a) = Gamma(a+1) * U^(1/a). *)
    let u = float t in
    gamma t ~shape:(shape +. 1.0) ~scale *. (u ** (1.0 /. shape))
  else begin
    (* Marsaglia–Tsang squeeze method. *)
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec attempt () =
      let x = normal t ~mu:0.0 ~sigma:1.0 in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then attempt ()
      else
        let v = v *. v *. v in
        let u = float t in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v +. log v)) then d *. v
        else attempt ()
    in
    attempt () *. scale
  end

(* Erlang as a sum of [shape] exponential draws, inlined by hand: the
   demand of every generated request flows through here, and calling
   [exponential] in a loop boxed two floats per stage (the draw's return
   and the accumulator store).  The arithmetic is term-for-term the same
   as [total := !total +. exponential t ~mean:scale], so the sequences
   are bit-identical.  [@inline] lets {!erlang_into} store the sum
   without boxing it. *)
let[@inline] erlang_sum t ~shape ~mean =
  if shape <= 0 then invalid_arg "Rng.erlang: shape must be positive";
  let scale = mean /. Stdlib.float_of_int shape in
  if not (scale > 0.0) then invalid_arg "Rng.erlang: mean must be positive";
  let total = ref 0.0 in
  for _ = 1 to shape do
    let u = 1.0 -. (Stdlib.float_of_int (bits53 t) *. unit_of_bits53) in
    total := !total +. (-.scale *. log u)
  done;
  !total

let erlang t ~shape ~mean = erlang_sum t ~shape ~mean

let erlang_into t ~shape ~mean dst i = dst.(i) <- erlang_sum t ~shape ~mean

let poisson t ~mean =
  if mean < 0.0 then invalid_arg "Rng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean < 30.0 then begin
    (* Knuth: multiply uniforms until falling under e^-mean. *)
    let limit = exp (-.mean) in
    let rec go k p =
      let p = p *. float t in
      if p <= limit then k else go (k + 1) p
    in
    go 0 1.0
  end
  else begin
    (* Normal approximation with continuity correction is adequate for
       the large-mean arrival batching used in workload generation. *)
    let x = normal t ~mu:mean ~sigma:(sqrt mean) in
    let k = int_of_float (Float.round x) in
    if k < 0 then 0 else k
  end

let pareto t ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Rng.pareto: shape and scale must be positive";
  let u = 1.0 -. float t in
  scale /. (u ** (1.0 /. shape))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  (* Inverse-CDF over the exact normalizing constant; n is small (file
     sets, servers) in all our uses, so O(n) is fine. *)
  let h = ref 0.0 in
  for k = 1 to n do
    h := !h +. (1.0 /. (Stdlib.float_of_int k ** s))
  done;
  let target = float t *. !h in
  let acc = ref 0.0 in
  let result = ref n in
  (try
     for k = 1 to n do
       acc := !acc +. (1.0 /. (Stdlib.float_of_int k ** s));
       if !acc >= target then begin
         result := k;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))
