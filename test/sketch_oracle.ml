(* The space-saving sketch keyed by file-set name, as telemetry kept it
   before it keyed its sketch by file-set index: the oracle the
   index-keyed sketch's ranking is checked against, evictions and count
   ties included.

   Tracks at most [capacity] keys.  A miss at capacity evicts the
   minimum-count entry (the smallest key among equal counts) and adopts
   its count as the newcomer's floor, recording that floor as the
   overestimate error. *)

type t = {
  keys : string array;
  counts : int array;
  errors : int array;
  mutable size : int;
  index : (string, int) Hashtbl.t;
}

let create ~capacity =
  {
    keys = Array.make capacity "";
    counts = Array.make capacity 0;
    errors = Array.make capacity 0;
    size = 0;
    index = Hashtbl.create capacity;
  }

let observe t key =
  match Hashtbl.find_opt t.index key with
  | Some i -> t.counts.(i) <- t.counts.(i) + 1
  | None ->
    if t.size < Array.length t.keys then begin
      let i = t.size in
      t.size <- i + 1;
      t.keys.(i) <- key;
      t.counts.(i) <- 1;
      t.errors.(i) <- 0;
      Hashtbl.add t.index key i
    end
    else begin
      let v = ref 0 in
      for i = 1 to t.size - 1 do
        let c = t.counts.(i) and vc = t.counts.(!v) in
        if c < vc || (c = vc && String.compare t.keys.(i) t.keys.(!v) < 0)
        then v := i
      done;
      let v = !v in
      let floor = t.counts.(v) in
      Hashtbl.remove t.index t.keys.(v);
      t.keys.(v) <- key;
      t.counts.(v) <- floor + 1;
      t.errors.(v) <- floor;
      Hashtbl.add t.index key v
    end

(* Entries sorted by count desc, then key asc. *)
let ranked t =
  List.init t.size (fun i -> (t.keys.(i), t.counts.(i), t.errors.(i)))
  |> List.sort (fun (ka, ca, _) (kb, cb, _) ->
         if ca <> cb then compare cb ca else String.compare ka kb)
