(* In-memory span recorder for the traced benchmark run.

   A span is (name, start, end, parent), kept in growable
   columns so that recording one costs two clock reads and a few array
   stores.  Spans are written out once, when the benchmark ends; a
   layer's self time is its spans' durations minus the part covered by
   their direct children. *)

type t = {
  mutable names : string array;  (* interned span names, by id *)
  ids : (string, int) Hashtbl.t;
  mutable len : int;
  mutable name : int array;
  mutable start : int array;  (* monotonic ns *)
  mutable stop : int array;
  mutable parent : int array;  (* span index, -1 for a root *)
  mutable open_ : int;  (* innermost open span, -1 when none *)
}

let now () = Int64.to_int (Desim.Clock.now_ns ())

let create () =
  let cap = 1024 in
  {
    names = [||];
    ids = Hashtbl.create 16;
    len = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    open_ = -1;
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
    let id = Array.length t.names in
    t.names <- Array.append t.names [| s |];
    Hashtbl.add t.ids s id;
    id

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent

let push t ~name ~start ~stop ~parent =
  if t.len = Array.length t.name then grow t;
  let i = t.len in
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.len <- i + 1;
  i

(* [record t name ~start ~stop] adds a finished span under the innermost
   open one — for intervals that end in a callback, not in a return. *)
let record t name ~start ~stop =
  ignore (push t ~name:(intern t name) ~start ~stop ~parent:t.open_)

(* [name_id] is an interned name, so hot wrappers skip the lookup. *)
let with_id t name_id f =
  let i = push t ~name:name_id ~start:(now ()) ~stop:0 ~parent:t.open_ in
  t.open_ <- i;
  let finish () =
    t.stop.(i) <- now ();
    t.open_ <- t.parent.(i)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let with_ t name f = with_id t (intern t name) f

(* Per span name: (count, total ns, self ns), in first-seen order. *)
let summary t =
  let k = Array.length t.names in
  let count = Array.make k 0 and total = Array.make k 0 and self = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let d = t.stop.(i) - t.start.(i) in
    let n = t.name.(i) in
    count.(n) <- count.(n) + 1;
    total.(n) <- total.(n) + d;
    self.(n) <- self.(n) + d;
    let p = t.parent.(i) in
    if p >= 0 then self.(t.name.(p)) <- self.(t.name.(p)) - d
  done;
  List.filter_map
    (fun n -> if count.(n) = 0 then None else Some (t.names.(n), count.(n), total.(n), self.(n)))
    (List.init k Fun.id)

let total_ns t name =
  List.fold_left
    (fun acc (n, _, total, _) -> if n = name then acc + total else acc)
    0 (summary t)

(* Total duration of the root spans. *)
let roots_ns t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then acc := !acc + t.stop.(i) - t.start.(i)
  done;
  !acc

(* One JSON object per line, start/end relative to the first span, each
   tagged with [section].  Of the spans sharing a parent and a name, the
   first 1,000 are written one by one; the rest are folded into one line
   carrying their count and total, so per-request spans do not flood the
   file. *)
let write oc ~section t =
  let keep = 1000 in
  let t0 = if t.len = 0 then 0 else t.start.(0) in
  let seen = Hashtbl.create 64 in
  let folded = Hashtbl.create 64 in
  for i = 0 to t.len - 1 do
    let key = (t.parent.(i), t.name.(i)) in
    let n = Option.value ~default:0 (Hashtbl.find_opt seen key) in
    Hashtbl.replace seen key (n + 1);
    if n < keep then
      Printf.fprintf oc
        "{\"section\":%S,\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        section i t.names.(t.name.(i)) t.parent.(i) (t.start.(i) - t0) (t.stop.(i) - t0)
    else
      let c, d = Option.value ~default:(0, 0) (Hashtbl.find_opt folded key) in
      Hashtbl.replace folded key (c + 1, d + t.stop.(i) - t.start.(i))
  done;
  Hashtbl.iter
    (fun (parent, name) (c, d) ->
      Printf.fprintf oc
        "{\"section\":%S,\"folded\":%d,\"name\":%S,\"parent\":%d,\"total_ns\":%d}\n"
        section c t.names.(name) parent d)
    folded
