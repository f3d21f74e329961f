(* Workers claim thunks in input order from one atomic counter: jobs
   are coarse (seconds of single-domain simulation each), so contention
   on the counter is irrelevant and work stealing would buy nothing.
   Each result slot is written by exactly one worker and read only
   after every worker is joined, which orders the writes before the
   reads.  A thunk's exception is stored with its backtrace in its
   slot, so no worker ever dies with one. *)
let run ~jobs thunks =
  match thunks with
  | [] -> []
  | _ when jobs <= 1 -> List.map (fun f -> f ()) thunks
  | _ ->
    let thunks = Array.of_list thunks in
    let n = Array.length thunks in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (match thunks.(i) () with
            | v -> Ok v
            | exception exn -> Error (exn, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    List.init (min jobs n) (fun _ -> Domain.spawn work)
    |> List.iter Domain.join;
    (* Unwrapping in input order re-raises the earliest thunk's
       exception. *)
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
         | None -> assert false)
