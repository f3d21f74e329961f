let op_to_string = Sharedfs.Request.op_name

let op_of_string s =
  List.find_opt
    (fun op -> Sharedfs.Request.op_name op = s)
    Sharedfs.Request.all_ops

let to_string trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# duration: %.6f\n# records: %d\n" (Trace.duration trace)
       (Trace.length trace));
  Array.iter
    (fun r ->
      let req = r.Trace.request in
      Buffer.add_string buf
        (Printf.sprintf "%.6f %s %s %d %d %.9f\n" r.Trace.time
           req.Sharedfs.Request.file_set
           (op_to_string req.Sharedfs.Request.op)
           req.Sharedfs.Request.path_hash req.Sharedfs.Request.client
           r.Trace.demand))
    (Trace.records trace);
  Buffer.contents buf

(* One parsed line of the text format; [lineno] is 1-based. *)
type line =
  | Duration of float
  | Record of Trace.record
  | Skip

let parse_line ~what ~lineno line =
  let line = String.trim line in
  if line = "" then Skip
  else if line.[0] = '#' then begin
    (* Recognize the duration header; other comments are ignored. *)
    let prefix = "# duration:" in
    if String.length line >= String.length prefix
       && String.sub line 0 (String.length prefix) = prefix
    then begin
      let v =
        String.trim
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
      in
      match float_of_string_opt v with
      | Some d when Float.is_finite d -> Duration d
      | Some _ ->
        failwith
          (Printf.sprintf "%s: non-finite duration at line %d" what lineno)
      | None ->
        failwith (Printf.sprintf "%s: bad duration at line %d" what lineno)
    end
    else Skip
  end
  else begin
    let malformed () =
      failwith (Printf.sprintf "%s: malformed line %d" what lineno)
    in
    let fields = String.split_on_char ' ' line in
    let time, file_set, op, path_hash, client, demand =
      match fields with
      | [ time; file_set; op; path_hash; client; demand ] ->
        (time, file_set, op, path_hash, client, demand)
      | [ time; file_set; op; path_hash; demand ] ->
        (* Legacy five-field format: no client column. *)
        (time, file_set, op, path_hash, "0", demand)
      | _ -> malformed ()
    in
    match
      ( float_of_string_opt time,
        op_of_string op,
        int_of_string_opt path_hash,
        int_of_string_opt client,
        float_of_string_opt demand )
    with
    | Some time, Some op, Some path_hash, Some client, Some demand ->
      (* [nan] and [inf] parse as floats, and every ordering check
         passes for NaN: reject them here, with the line. *)
      if not (Float.is_finite time) then
        failwith (Printf.sprintf "%s: non-finite time at line %d" what lineno);
      if not (Float.is_finite demand) then
        failwith
          (Printf.sprintf "%s: non-finite demand at line %d" what lineno);
      Record
        {
          Trace.time;
          request = { Sharedfs.Request.op; file_set; path_hash; client };
          demand;
        }
    | _ -> malformed ()
  end

(* Fold the parser over a line source, collecting records in input
   order; shared by the string, whole-file and streaming readers. *)
let parse_all ~what next_line =
  let duration = ref None in
  let records = ref [] in
  let lineno = ref 0 in
  let rec go () =
    match next_line () with
    | None -> ()
    | Some line ->
      incr lineno;
      (match parse_line ~what ~lineno:!lineno line with
      | Duration d -> duration := Some d
      | Record r -> records := r :: !records
      | Skip -> ());
      go ()
  in
  go ();
  let records = List.rev !records in
  let duration =
    match !duration with
    | Some d -> d
    | None ->
      List.fold_left (fun acc r -> Float.max acc r.Trace.time) 1e-9 records
  in
  Trace.create ~duration records

let line_source_of_string s =
  let lines = ref (String.split_on_char '\n' s) in
  fun () ->
    match !lines with
    | [] -> None
    | l :: rest ->
      lines := rest;
      Some l

let of_string s = parse_all ~what:"Trace_io.of_string" (line_source_of_string s)

let save trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string trace))

let line_source_of_channel ic () =
  match input_line ic with l -> Some l | exception End_of_file -> None

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (* Line-at-a-time: peak memory is the records, never a second
         copy of the file as one string. *)
      parse_all ~what:("Trace_io.load: " ^ path) (line_source_of_channel ic))

let stream ~path =
  let what = "Trace_io.stream: " ^ path in
  (* Pre-scan: count records, find the duration and the file-set name
     universe, and insist on time-sorted input — the price of replay
     without ever materializing. *)
  let ids = Hashtbl.create 64 in
  let names_rev = ref [] in
  let count = ref 0 in
  let header = ref None in
  let max_time = ref 0.0 in
  let last_time = ref neg_infinity in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      let rec go () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
          incr lineno;
          (match parse_line ~what ~lineno:!lineno line with
          | Duration d -> header := Some d
          | Skip -> ()
          | Record r ->
            if r.Trace.time < !last_time then
              failwith
                (Printf.sprintf "%s: records not time-sorted at line %d" what
                   !lineno);
            if r.Trace.time < 0.0 then
              failwith
                (Printf.sprintf "%s: negative time at line %d" what !lineno);
            if r.Trace.demand <= 0.0 then
              failwith
                (Printf.sprintf "%s: non-positive demand at line %d" what
                   !lineno);
            last_time := r.Trace.time;
            max_time := Float.max !max_time r.Trace.time;
            incr count;
            let name = r.Trace.request.Sharedfs.Request.file_set in
            if not (Hashtbl.mem ids name) then begin
              Hashtbl.add ids name (Hashtbl.length ids);
              names_rev := name :: !names_rev
            end);
          go ()
      in
      go ());
  let duration =
    match !header with Some d -> d | None -> Float.max 1e-9 !max_time
  in
  if !max_time > duration then
    failwith
      (Printf.sprintf "%s: record at %g outside [0, %g]" what !max_time
         duration);
  let names = Array.of_list (List.rev !names_rev) in
  let fresh () =
    let ic = open_in path in
    let lineno = ref 0 in
    let finished = ref false in
    let rec next () =
      if !finished then None
      else begin
        match input_line ic with
        | exception End_of_file ->
          finished := true;
          close_in ic;
          None
        | line ->
          incr lineno;
          (match parse_line ~what ~lineno:!lineno line with
          | Duration _ | Skip -> next ()
          | Record r ->
            let req = r.Trace.request in
            let fs = Hashtbl.find ids req.Sharedfs.Request.file_set in
            Some
              {
                Stream.time = r.Trace.time;
                fs;
                (* Reuse the interned name so replay allocates one
                   string per file set, not per record. *)
                request = { req with Sharedfs.Request.file_set = names.(fs) };
                demand = r.Trace.demand;
              })
      end
    in
    next
  in
  Stream.make ~duration ~total:!count ~file_sets:(Array.to_list names) ~fresh ()
