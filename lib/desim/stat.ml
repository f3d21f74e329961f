module Sample = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
    mutable total : float;
    moments : Welford.t;
  }

  let create () =
    {
      data = [||];
      len = 0;
      sorted = true;
      total = 0.0;
      moments = Welford.create ();
    }

  let add t x =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let narr = Array.make ncap 0.0 in
      Array.blit t.data 0 narr 0 t.len;
      t.data <- narr
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false;
    t.total <- t.total +. x;
    Welford.add t.moments x

  let count t = t.len

  let mean t = Welford.mean t.moments

  let std_dev t = Welford.std_dev t.moments

  let min_value t = Welford.min_value t.moments

  let max_value t = Welford.max_value t.moments

  let total t = t.total

  let ensure_sorted t =
    if not t.sorted then begin
      let sub = Array.sub t.data 0 t.len in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.data 0 t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then invalid_arg "Stat.Sample.percentile: empty sample";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stat.Sample.percentile: p out of [0, 100]";
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then t.data.(lo)
    else
      let frac = rank -. float_of_int lo in
      ((1.0 -. frac) *. t.data.(lo)) +. (frac *. t.data.(hi))

  let median t = percentile t 50.0

  let values t =
    ensure_sorted t;
    Array.sub t.data 0 t.len

  let reset t =
    t.len <- 0;
    t.sorted <- true;
    t.total <- 0.0;
    Welford.reset t.moments
end

module Histogram = struct
  type t = {
    lo : float;
    hi : float;
    bins : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable count : int;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Stat.Histogram.create: bins must be > 0";
    if not (lo < hi) then invalid_arg "Stat.Histogram.create: lo must be < hi";
    { lo; hi; bins = Array.make bins 0; underflow = 0; overflow = 0; count = 0 }

  let add t x =
    t.count <- t.count + 1;
    if x < t.lo then t.underflow <- t.underflow + 1
    else if x >= t.hi then t.overflow <- t.overflow + 1
    else begin
      let n = Array.length t.bins in
      let idx =
        int_of_float ((x -. t.lo) /. (t.hi -. t.lo) *. float_of_int n)
      in
      let idx = if idx >= n then n - 1 else idx in
      t.bins.(idx) <- t.bins.(idx) + 1
    end

  let count t = t.count

  let bin_counts t = Array.copy t.bins

  let underflow t = t.underflow

  let overflow t = t.overflow

  let bin_edges t =
    let n = Array.length t.bins in
    Array.init (n + 1) (fun i ->
        t.lo +. ((t.hi -. t.lo) *. float_of_int i /. float_of_int n))
end

module Quantile = struct
  type t = {
    bins : int array;
    mutable underflow : int;
    mutable overflow : int;
    mutable count : int;
    mutable min_seen : float;
    mutable max_seen : float;
  }

  (* lo 1us, 2% geometric bins: 1400 bins reach past 1e6 seconds, so
     any plausible latency lands in a bin rather than the overflow
     counter. *)
  let lo = 1e-6

  let log_lo = Float.log lo

  let log_ratio = Float.log 1.02

  let create () =
    {
      bins = Array.make 1400 0;
      underflow = 0;
      overflow = 0;
      count = 0;
      min_seen = Float.infinity;
      max_seen = Float.neg_infinity;
    }

  let add t x =
    t.count <- t.count + 1;
    if x < t.min_seen then t.min_seen <- x;
    if x > t.max_seen then t.max_seen <- x;
    if x < lo then t.underflow <- t.underflow + 1
    else begin
      let idx = int_of_float ((Float.log x -. log_lo) /. log_ratio) in
      let n = Array.length t.bins in
      if idx >= n then t.overflow <- t.overflow + 1
      else t.bins.(idx) <- t.bins.(idx) + 1
    end

  let count t = t.count

  let min_value t = t.min_seen

  let max_value t = t.max_seen

  let percentile t p =
    if t.count = 0 then invalid_arg "Stat.Quantile.percentile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stat.Quantile.percentile: p out of [0, 100]";
    (* Smallest bin whose cumulative count reaches the rank; report its
       geometric midpoint, clamped by the exact extremes. *)
    let rank =
      Stdlib.max 1
        (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)))
    in
    if rank <= t.underflow then t.min_seen
    else begin
      let cum = ref t.underflow in
      let n = Array.length t.bins in
      let result = ref t.max_seen in
      (try
         for i = 0 to n - 1 do
           cum := !cum + t.bins.(i);
           if !cum >= rank then begin
             let mid =
               Float.exp (log_lo +. ((float_of_int i +. 0.5) *. log_ratio))
             in
             result := Float.min t.max_seen (Float.max t.min_seen mid);
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
end

let weighted_mean pairs =
  let num, den =
    List.fold_left
      (fun (num, den) (v, w) -> (num +. (v *. w), den +. w))
      (0.0, 0.0) pairs
  in
  if den = 0.0 then 0.0 else num /. den

let median_of values =
  match values with
  | [] -> invalid_arg "Stat.median_of: empty list"
  | _ ->
    let arr = Array.of_list values in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2)
    else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.0

let coefficient_of_variation values =
  let w = Welford.create () in
  List.iter (Welford.add w) values;
  let m = Welford.mean w in
  if m = 0.0 then 0.0 else Welford.std_dev w /. m

let imbalance values =
  match values with
  | [] -> 0.0
  | _ ->
    let w = Welford.create () in
    List.iter (Welford.add w) values;
    let m = Welford.mean w in
    if m = 0.0 then 0.0 else Welford.max_value w /. m
