(* Structure-of-arrays 4-ary min-heap.

   Three parallel arrays replace the previous array-of-records binary
   heap: [times] is a flat unboxed float array (no per-entry pointer
   chase on the comparison path), [seqs] carries the FIFO tie-breaker
   and [values] the payloads.  A 4-ary shape halves the tree depth, so
   the pop path — the hot loop of every simulation — does fewer
   cache-missing levels in exchange for up to four in-cache-line
   comparisons per level.  Sift operations move the hole instead of
   swapping, writing each slot once. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0 }

let is_empty h = h.len = 0

let size h = h.len

let clear h =
  (* Drop the backing arrays so a cleared heap holds no stale payload
     references; [next_seq] deliberately survives (see the mli). *)
  h.times <- [||];
  h.seqs <- [||];
  h.values <- [||];
  h.len <- 0

(* Heap order: earlier time wins, ties broken by insertion sequence so
   same-time events pop in FIFO order.  Only cold paths (compaction
   check, invariant audit) call this helper: the sift loops inline the
   comparison so no float crosses a function boundary per level —
   without flambda every float argument boxes two words, and the sift
   comparisons run several times per fired event. *)
let before h i ~time ~seq =
  h.times.(i) < time || (h.times.(i) = time && h.seqs.(i) < seq)

let grow h value =
  let cap = Array.length h.times in
  if h.len = cap then begin
    let ncap = if cap = 0 then initial_capacity else cap * 2 in
    let ntimes = Array.make ncap 0.0 in
    let nseqs = Array.make ncap 0 in
    (* The incoming value doubles as the filler, as in the seed heap:
       no dummy 'a is ever fabricated. *)
    let nvalues = Array.make ncap value in
    Array.blit h.times 0 ntimes 0 h.len;
    Array.blit h.seqs 0 nseqs 0 h.len;
    Array.blit h.values 0 nvalues 0 h.len;
    h.times <- ntimes;
    h.seqs <- nseqs;
    h.values <- nvalues
  end

(* Place the entry currently stored at [start] by walking the hole
   toward the root.  The key is read into locals and every comparison
   is a float array load in this body, so the compiler keeps the whole
   walk unboxed.  Unsafe accesses are sound: every index is either
   [start] (caller guarantees [start < len]) or a parent of a valid
   index, and parents of valid indices are valid. *)
let sift_up_from h start =
  let times = h.times in
  let seqs = h.seqs in
  let values = h.values in
  let time = Array.unsafe_get times start in
  let seq = Array.unsafe_get seqs start in
  let value = Array.unsafe_get values start in
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pt = Array.unsafe_get times parent in
    if pt < time || (pt = time && Array.unsafe_get seqs parent < seq) then
      continue := false
    else begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set values !i (Array.unsafe_get values parent);
      i := parent
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value

(* Place the entry currently stored at [start] by walking the hole
   toward the leaves, pulling the smallest of up to four children up
   each level.  Same unboxing and bounds story as [sift_up_from]: the
   children scanned are clamped to [n - 1 < len <= capacity]. *)
let sift_down_from h start =
  let times = h.times in
  let seqs = h.seqs in
  let values = h.values in
  let time = Array.unsafe_get times start in
  let seq = Array.unsafe_get seqs start in
  let value = Array.unsafe_get values start in
  let n = h.len in
  let i = ref start in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= n then continue := false
    else begin
      let last = if first + 3 < n - 1 then first + 3 else n - 1 in
      let m = ref first in
      for c = first + 1 to last do
        let ct = Array.unsafe_get times c in
        let mt = Array.unsafe_get times !m in
        if ct < mt || (ct = mt && Array.unsafe_get seqs c < Array.unsafe_get seqs !m)
        then m := c
      done;
      let mt = Array.unsafe_get times !m in
      if mt < time || (mt = time && Array.unsafe_get seqs !m < seq) then begin
        Array.unsafe_set times !i mt;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs !m);
        Array.unsafe_set values !i (Array.unsafe_get values !m);
        i := !m
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value

let add h ~time value =
  if Float.is_nan time then invalid_arg "Event_heap.add: NaN time";
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  grow h value;
  let i = h.len in
  h.len <- i + 1;
  h.times.(i) <- time;
  h.seqs.(i) <- seq;
  h.values.(i) <- value;
  sift_up_from h i;
  seq

let peek_time h = if h.len = 0 then None else Some h.times.(0)

let peek h =
  if h.len = 0 then None else Some (h.times.(0), h.seqs.(0), h.values.(0))

let pop h =
  if h.len = 0 then raise Not_found;
  let time = h.times.(0) in
  let seq = h.seqs.(0) in
  let value = h.values.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    let n = h.len in
    h.times.(0) <- h.times.(n);
    h.seqs.(0) <- h.seqs.(n);
    h.values.(0) <- h.values.(n);
    sift_down_from h 0
  end;
  (time, seq, value)

let pop_opt h = if h.len = 0 then None else Some (pop h)

(* Remove the minimum without materializing the (time, seq, value)
   tuple.  The scheduler hot path reads the head through the exposed
   arrays (unboxed float loads) and then drops it with this, so a fired
   event allocates nothing. *)
let drop_min h =
  if h.len = 0 then raise Not_found;
  h.len <- h.len - 1;
  if h.len > 0 then begin
    let n = h.len in
    h.times.(0) <- h.times.(n);
    h.seqs.(0) <- h.seqs.(n);
    h.values.(0) <- h.values.(n);
    sift_down_from h 0
  end

let compact h ~keep =
  (* In-place filter of all three arrays, then bottom-up heapify.  The
     surviving entries keep their (time, seq) keys, so the pop order of
     live entries — and therefore simulation behaviour — is untouched;
     only tombstones vanish. *)
  let j = ref 0 in
  for i = 0 to h.len - 1 do
    if keep h.values.(i) then begin
      if !j < i then begin
        h.times.(!j) <- h.times.(i);
        h.seqs.(!j) <- h.seqs.(i);
        h.values.(!j) <- h.values.(i)
      end;
      incr j
    end
  done;
  h.len <- !j;
  if h.len > 1 then
    for i = (h.len - 2) / 4 downto 0 do
      sift_down_from h i
    done

let check_invariant h =
  let ok = ref true in
  for i = 1 to h.len - 1 do
    let parent = (i - 1) / 4 in
    if before h i ~time:h.times.(parent) ~seq:h.seqs.(parent) then ok := false
  done;
  !ok
