(* Per-request completion callbacks for tests that drive a cluster by
   hand.  The cluster reports every completion to one sink, with the
   request's file set, operation, path hash and client; [install] puts
   in a sink that hands each completion to the callback of the oldest
   outstanding request with the same four columns.  Tests give requests
   with equal columns equal callbacks, so which of them runs first does
   not matter. *)

open Sharedfs

type t = {
  cluster : Cluster.t;
  waiting :
    (int * Request.op * int * int, (latency:float -> unit) Queue.t) Hashtbl.t;
}

let install cluster =
  let waiting = Hashtbl.create 16 in
  Cluster.set_sink cluster (fun ~fs ~op ~path_hash ~client ~latency ->
      match Hashtbl.find_opt waiting (fs, op, path_hash, client) with
      | Some q when not (Queue.is_empty q) -> (Queue.pop q) ~latency
      | Some _ | None -> Alcotest.fail "completion of a request never submitted");
  { cluster; waiting }

let submit t ~base_demand (req : Request.t) ~on_complete =
  let fs = Cluster.fs_id t.cluster req.Request.file_set in
  let key = (fs, req.Request.op, req.Request.path_hash, req.Request.client) in
  let q =
    match Hashtbl.find_opt t.waiting key with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.waiting key q;
      q
  in
  Queue.add on_complete q;
  Cluster.submit t.cluster ~fs ~op:req.Request.op ~base_demand
    ~path_hash:req.Request.path_hash ~client:req.Request.client

(* The same for one server: tags number the jobs, each with its
   callback, and the sink records each latency as the cluster's does. *)
let serve =
  let callbacks = Hashtbl.create 16 in
  let next = ref 0 in
  fun server ~base_demand (req : Request.t) ~on_complete ->
    let tag = !next in
    incr next;
    Hashtbl.add callbacks tag on_complete;
    Server.set_sink server (fun ~tag ~latency ->
        Server.record server ~latency;
        (Hashtbl.find callbacks tag) ~latency;
        Hashtbl.remove callbacks tag);
    Server.submit server ~fs:0 ~op:req.Request.op ~base_demand ~tag
