module Counter = struct
  type c = { mutable count : int }

  let incr c = c.count <- c.count + 1

  let add c n = c.count <- c.count + n

  let value c = c.count
end

module Gauge = struct
  type g = { mutable value : float }

  let set g v = g.value <- v

  let set_int g n = g.value <- float_of_int n

  let value g = g.value
end

module Histogram = struct
  type h = {
    bounds : float array;  (* upper bounds, strictly increasing *)
    counts : int array;  (* length bounds + 1; last is overflow *)
    mutable count : int;
    stats : float array;
        (* [| sum; min_seen; max_seen |]: mutable float fields of this
           mixed record would box on every store, so [observe] would
           allocate; array stores are flat *)
  }

  let make bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Metrics.histogram: empty bounds";
    for i = 1 to n - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must increase strictly"
    done;
    {
      bounds = Array.copy bounds;
      counts = Array.make (n + 1) 0;
      count = 0;
      stats = [| 0.0; infinity; neg_infinity |];
    }

  (* Index of the first bound >= x, or [n] (overflow). *)
  let bucket_index h x =
    let n = Array.length h.bounds in
    if x > h.bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if h.bounds.(mid) >= x then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let observe h x =
    let i = bucket_index h x in
    h.counts.(i) <- h.counts.(i) + 1;
    h.count <- h.count + 1;
    h.stats.(0) <- h.stats.(0) +. x;
    if x < h.stats.(1) then h.stats.(1) <- x;
    if x > h.stats.(2) then h.stats.(2) <- x

  let count h = h.count

  let sum h = h.stats.(0)

  let min_seen h = h.stats.(1)

  let max_seen h = h.stats.(2)

  let mean h = if h.count = 0 then 0.0 else sum h /. float_of_int h.count

  let max_value h = if h.count = 0 then 0.0 else max_seen h

  let min_value h = if h.count = 0 then 0.0 else min_seen h

  let percentile h p =
    if p < 0.0 || p > 100.0 then
      invalid_arg "Metrics.Histogram.percentile: p outside [0, 100]";
    if h.count = 0 then 0.0
    else begin
      let rank = p /. 100.0 *. float_of_int h.count in
      let n = Array.length h.bounds in
      let rec find i cumulative =
        if i > n then n
        else
          let cumulative = cumulative + h.counts.(i) in
          if float_of_int cumulative >= rank || i = n then i
          else find (i + 1) cumulative
      in
      let rec cumulative_before i acc j =
        if j >= i then acc else cumulative_before i (acc + h.counts.(j)) (j + 1)
      in
      let i = find 0 0 in
      let estimate =
        if i >= n then max_seen h
        else begin
          let below = cumulative_before i 0 0 in
          let inside = h.counts.(i) in
          let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
          let hi = h.bounds.(i) in
          if inside = 0 then hi
          else
            let fraction =
              (rank -. float_of_int below) /. float_of_int inside
            in
            lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 fraction))
        end
      in
      Float.max (min_seen h) (Float.min (max_seen h) estimate)
    end

  let bounds h = Array.copy h.bounds

  let reset h =
    Array.fill h.counts 0 (Array.length h.counts) 0;
    h.count <- 0;
    h.stats.(0) <- 0.0;
    h.stats.(1) <- infinity;
    h.stats.(2) <- neg_infinity
end

let default_latency_bounds =
  (* Five log-spaced buckets per decade, 1e-5 .. 1e4 seconds. *)
  Array.init 46 (fun i -> 10.0 ** (-5.0 +. (float_of_int i /. 5.0)))

type t = {
  counters : (string, Counter.c) Hashtbl.t;
  gauges : (string, Gauge.g) Hashtbl.t;
  histograms : (string, Histogram.h) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
  }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { Counter.count = 0 } in
    Hashtbl.add t.counters name c;
    c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { Gauge.value = 0.0 } in
    Hashtbl.add t.gauges name g;
    g

let histogram ?(bounds = default_latency_bounds) t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.make bounds in
    Hashtbl.add t.histograms name h;
    h

let reset (t : t) =
  Hashtbl.iter (fun _ c -> c.Counter.count <- 0) t.counters;
  Hashtbl.iter (fun _ g -> g.Gauge.value <- 0.0) t.gauges;
  Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms

type histogram_summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_summary) list;
}

let sorted_bindings table value_of =
  Hashtbl.fold (fun name v acc -> (name, value_of v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot (t : t) =
  {
    counters = sorted_bindings t.counters Counter.value;
    gauges = sorted_bindings t.gauges Gauge.value;
    histograms =
      sorted_bindings t.histograms (fun h ->
          {
            count = Histogram.count h;
            mean = Histogram.mean h;
            p50 = Histogram.percentile h 50.0;
            p95 = Histogram.percentile h 95.0;
            p99 = Histogram.percentile h 99.0;
            max = Histogram.max_value h;
          });
  }

let snapshot_to_json (s : snapshot) =
  let num x = Json.Num x in
  let int n = num (float_of_int n) in
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (name, v) -> (name, int v)) s.counters) );
      ( "gauges",
        Json.Obj (List.map (fun (name, v) -> (name, num v)) s.gauges) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Json.Obj
                   [
                     ("count", int h.count);
                     ("mean", num h.mean);
                     ("p50", num h.p50);
                     ("p95", num h.p95);
                     ("p99", num h.p99);
                     ("max", num h.max);
                   ] ))
             s.histograms) );
    ]

let pp_snapshot ppf s =
  let open Format in
  if s.counters <> [] then begin
    fprintf ppf "counters:@.";
    List.iter
      (fun (name, v) -> fprintf ppf "  %-42s %12d@." name v)
      s.counters
  end;
  if s.gauges <> [] then begin
    fprintf ppf "gauges:@.";
    List.iter
      (fun (name, v) -> fprintf ppf "  %-42s %12.3f@." name v)
      s.gauges
  end;
  if s.histograms <> [] then begin
    fprintf ppf "histograms:%38s%10s%10s%10s%10s%10s@." "count" "mean" "p50"
      "p95" "p99" "max";
    List.iter
      (fun (name, h) ->
        fprintf ppf "  %-42s %5d %9.4f %9.4f %9.4f %9.4f %9.4f@." name h.count
          h.mean h.p50 h.p95 h.p99 h.max)
      s.histograms
  end;
  if s.counters = [] && s.gauges = [] && s.histograms = [] then
    fprintf ppf "(no metrics registered)@."
