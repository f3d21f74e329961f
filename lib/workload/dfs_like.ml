type config = {
  file_sets : int;
  requests : int;
  duration : float;
  skew_ratio : float;
  burst_multiplier : float;
  burst_fraction : float;
  slot_seconds : float;
  mean_demand : float;
  demand_shape : int;
  seed : int;
}

let default_config =
  {
    file_sets = 21;
    requests = 112_590;
    duration = 3600.0;
    skew_ratio = 120.0;
    burst_multiplier = 2.5;
    burst_fraction = 0.10;
    slot_seconds = 60.0;
    mean_demand = 0.10;
    demand_shape = 4;
    seed = 7;
  }

let name_of i = Printf.sprintf "dfs-ws%02d" i

(* Geometric base activity: weights interpolate from 1 down to
   1/skew_ratio, so the most active set exceeds the least by exactly
   the configured ratio without a single set dominating the whole
   system (with 21 sets and ratio 120 the hottest carries ~21% of the
   load, matching the DFSTrace hour's character). *)
let raw_base_weights config =
  let n = config.file_sets in
  if n = 1 then [| 1.0 |]
  else
    Array.init n (fun i ->
        config.skew_ratio
        ** (-.float_of_int i /. float_of_int (n - 1)))

let base_weights config =
  let raw = raw_base_weights config in
  let total = Array.fold_left ( +. ) 0.0 raw in
  Array.to_list (Array.mapi (fun i w -> (name_of i, w /. total)) raw)

(* Every float check is written so that NaN fails it, and the stream is
   rejected when built: a bad config must not first fail mid-run, and
   with prefetching possibly on another domain. *)
let validate config =
  let bad what = invalid_arg ("Dfs_like.generate: " ^ what) in
  let positive x = Float.is_finite x && x > 0.0 in
  let at_least_one x = Float.is_finite x && x >= 1.0 in
  if config.file_sets <= 0 then bad "file_sets must be positive";
  if config.requests <= 0 then bad "requests must be positive";
  if not (positive config.duration) then
    bad "duration must be positive and finite";
  if not (at_least_one config.skew_ratio) then
    bad "skew_ratio must be finite and >= 1";
  if not (at_least_one config.burst_multiplier) then
    bad "burst_multiplier must be finite and >= 1";
  if not (config.burst_fraction >= 0.0 && config.burst_fraction <= 1.0) then
    bad "burst_fraction must lie in [0, 1]";
  if not (positive config.slot_seconds) then
    bad "slot_seconds must be positive and finite";
  if not (positive config.mean_demand) then
    bad "mean_demand must be positive and finite";
  if config.demand_shape <= 0 then bad "demand_shape must be positive"

let stream config =
  validate config;
  let n = config.file_sets in
  let slots =
    max 1 (int_of_float (Float.ceil (config.duration /. config.slot_seconds)))
  in
  let base = raw_base_weights config in
  let rng = Desim.Rng.create config.seed in
  (* Per-set, per-slot intensity: baseline modulated by bursts. *)
  let intensity = Array.make_matrix n slots 0.0 in
  for i = 0 to n - 1 do
    for s = 0 to slots - 1 do
      let mult =
        if Desim.Rng.float rng < config.burst_fraction then
          config.burst_multiplier
        else 1.0
      in
      intensity.(i).(s) <- base.(i) *. mult
    done
  done;
  (* The arrival law factors as time-marginal x set-conditional: a
     slot draws probability mass proportional to its total intensity
     (unscaled by window width, so a truncated final slot packs the
     same mass into less time), and within a slot the set follows the
     per-slot intensity column.  Cumulative sums over both let the
     cursor walk sorted uniforms through the inverse CDF. *)
  let slot_total = Array.make slots 0.0 in
  let slot_cum = Array.make slots 0.0 in
  let cond_cum = Array.make_matrix slots n 0.0 in
  let grand = ref 0.0 in
  for s = 0 to slots - 1 do
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. intensity.(i).(s);
      cond_cum.(s).(i) <- !acc
    done;
    slot_total.(s) <- !acc;
    grand := !grand +. !acc;
    slot_cum.(s) <- !grand
  done;
  let grand = !grand in
  let uniform bits = float_of_int bits *. Desim.Rng.unit_of_bits53 in
  let pick_set s bits =
    (* Iterative binary search: an inner [let rec] closure would
       allocate per call without flambda, and this runs once per
       generated request.  The draw arrives as [Rng.bits53], an
       unboxed [int]; a float argument would be boxed. *)
    let target = uniform bits *. slot_total.(s) in
    let col = cond_cum.(s) in
    let lo = ref 0 in
    let hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if col.(mid) < target then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let names = Array.init n name_of in
  let fresh () =
    let rng = Desim.Rng.create config.seed in
    (* Replay the intensity-matrix draws so the arrival rng matches the
       one [Rng.split] derived at matrix-construction time. *)
    for _ = 1 to n * slots do
      ignore (Desim.Rng.float rng)
    done;
    let arrivals = Desim.Rng.split rng in
    let next_u =
      Stream.sorted_uniforms arrivals ~n:config.requests ~lo:0.0 ~hi:1.0
    in
    let emitted = ref 0 in
    let slot = ref 0 in
    fun () ->
      if !emitted >= config.requests then None
      else begin
        incr emitted;
        let target = next_u () *. grand in
        (* Targets are sorted, so the slot pointer only moves forward. *)
        while !slot < slots - 1 && slot_cum.(!slot) < target do
          incr slot
        done;
        let s = !slot in
        let before = if s = 0 then 0.0 else slot_cum.(s - 1) in
        let within =
          Float.min 1.0 (Float.max 0.0 ((target -. before) /. slot_total.(s)))
        in
        let slot_lo = float_of_int s *. config.slot_seconds in
        let slot_hi =
          Float.min config.duration (slot_lo +. config.slot_seconds)
        in
        let time = slot_lo +. (within *. (slot_hi -. slot_lo)) in
        let i = pick_set s (Desim.Rng.bits53 arrivals) in
        let op = Trace.sample_op arrivals in
        let demand =
          Desim.Rng.erlang arrivals ~shape:config.demand_shape
            ~mean:config.mean_demand
        in
        let client =
          (* The traced workstation owns its file set's traffic, with a
             sprinkling of cross-machine access. *)
          if Desim.Rng.float arrivals < 0.9 then i
          else Desim.Rng.int arrivals config.file_sets
        in
        Some
          {
            Stream.time;
            fs = i;
            request =
              {
                Sharedfs.Request.op;
                file_set = names.(i);
                path_hash = Desim.Rng.int arrivals 1_000_000;
                client;
              };
            demand;
          }
      end
  in
  (* The batch cursor is the item cursor transposed: the same draws in
     the same order per request, writing column arrays instead of
     building [item] / [Request.t] records — the identical sequence,
     allocating nothing.  The sorted arrival walk
     ([Stream.sorted_uniforms]) is inlined so its state lives in a
     float cell instead of a boxed ref, and every uniform is drawn as
     [Rng.bits53] and scaled here: [Rng.float] and [Rng.erlang] return
     boxed floats across the module boundary. *)
  let batch () =
    let rng = Desim.Rng.create config.seed in
    for _ = 1 to n * slots do
      ignore (Desim.Rng.float rng)
    done;
    let arrivals = Desim.Rng.split rng in
    let emitted = ref 0 in
    let slot = ref 0 in
    (* The walk's position, written for every row by whichever domain
       generates: word 8 of 16, so that its cache line holds nothing
       the engine writes (as [Rng.t] keeps its state). *)
    let vcell = Array.make 16 0.0 in
    fun (c : Stream.cols) ->
      let cap = Array.length c.times in
      let count = min cap (config.requests - !emitted) in
      let base = !emitted in
      for j = 0 to count - 1 do
        (* Inlined [sorted_uniforms arrivals ~n:requests ~lo:0.0
           ~hi:1.0]: conditional law of the next order statistic. *)
        let remaining = config.requests - (base + j) in
        let u = uniform (Desim.Rng.bits53 arrivals) in
        let v0 = vcell.(8) in
        let v =
          v0
          +. (1.0 -. v0)
             *. (1.0 -. ((1.0 -. u) ** (1.0 /. float_of_int remaining)))
        in
        vcell.(8) <- v;
        let target = v *. grand in
        while !slot < slots - 1 && slot_cum.(!slot) < target do
          incr slot
        done;
        let s = !slot in
        let before = if s = 0 then 0.0 else slot_cum.(s - 1) in
        let within =
          Float.min 1.0 (Float.max 0.0 ((target -. before) /. slot_total.(s)))
        in
        let slot_lo = float_of_int s *. config.slot_seconds in
        let slot_hi =
          Float.min config.duration (slot_lo +. config.slot_seconds)
        in
        c.times.(j) <- slot_lo +. (within *. (slot_hi -. slot_lo));
        let i = pick_set s (Desim.Rng.bits53 arrivals) in
        c.fs.(j) <- i;
        c.ops.(j) <- Trace.sample_op arrivals;
        Desim.Rng.erlang_into arrivals ~shape:config.demand_shape
          ~mean:config.mean_demand c.demand j;
        c.client.(j) <-
          (if uniform (Desim.Rng.bits53 arrivals) < 0.9 then i
           else Desim.Rng.int arrivals config.file_sets);
        c.path.(j) <- Desim.Rng.int arrivals 1_000_000
      done;
      emitted := base + count;
      count
  in
  (* Arrivals are open-loop — no row depends on the simulation — so
     generation runs ahead of the consumer, off its domain. *)
  let fresh_batch () = Stream.prefetch ~rows:config.requests (batch ()) in
  Stream.make ~fresh_batch ~duration:config.duration ~total:config.requests
    ~file_sets:(Array.to_list names) ~fresh ()

let generate config = Stream.to_trace (stream config)
