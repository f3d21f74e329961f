type point = { bucket_start : float; mean : float; count : int; max : float }

(* The per-observation accumulators (sum, max) live in a small float
   array: mutable float fields of a mixed record box on every store,
   which made [observe] allocate on the hottest per-completion path.
   Array stores are flat. *)
type t = {
  interval : float;
  mutable current_index : int;
  mutable count : int;
  acc : float array; (* [| sum; max |] of the open bucket *)
  mutable closed : point list; (* reverse order *)
}

let create ~interval =
  if interval <= 0.0 then
    invalid_arg "Timeseries.create: interval must be positive";
  { interval; current_index = 0; count = 0; acc = [| 0.0; 0.0 |]; closed = [] }

let interval t = t.interval

let close_current t =
  let mean = if t.count = 0 then 0.0 else t.acc.(0) /. float_of_int t.count in
  let point =
    {
      bucket_start = float_of_int t.current_index *. t.interval;
      mean;
      count = t.count;
      max = (if t.count = 0 then 0.0 else t.acc.(1));
    }
  in
  t.closed <- point :: t.closed;
  t.current_index <- t.current_index + 1;
  t.acc.(0) <- 0.0;
  t.count <- 0;
  t.acc.(1) <- 0.0

let bucket_of t time = int_of_float (Float.floor (time /. t.interval))

(* Inlined into the entry points below, so that the time read from
   the clock cell and an int's float stay unboxed. *)
let[@inline] add t time value =
  let idx = bucket_of t time in
  if idx < t.current_index then
    invalid_arg "Timeseries.observe: observation before current bucket";
  while t.current_index < idx do
    close_current t
  done;
  t.acc.(0) <- t.acc.(0) +. value;
  t.count <- t.count + 1;
  if value > t.acc.(1) then t.acc.(1) <- value

let observe t ~clock value = add t clock.(0) value

let observe_int t ~clock n = add t clock.(0) (float_of_int n)

let observe_at t ~clock values i = add t clock.(0) values.(i)

let finish t ~until =
  let last = bucket_of t until in
  while t.current_index <= last do
    close_current t
  done;
  List.rev t.closed
