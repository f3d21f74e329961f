type t = {
  station : Desim.Station.t;
  bandwidth : float;
  mutable transfers : int;
  mutable bytes : int;
}

let create sim ~bandwidth =
  if bandwidth <= 0.0 then invalid_arg "San.create: bandwidth must be positive";
  let t =
    {
      station = Desim.Station.create sim ~name:"san" ~speed:bandwidth;
      bandwidth;
      transfers = 0;
      bytes = 0;
    }
  in
  (* A transfer's tag is its size, so one sink does the accounting. *)
  Desim.Station.set_sink t.station (fun ~tag ~latency:_ ->
      t.transfers <- t.transfers + 1;
      t.bytes <- t.bytes + tag);
  t

let bandwidth t = t.bandwidth

let transfer t ~bytes =
  if bytes <= 0 then invalid_arg "San.transfer: bytes must be positive";
  Desim.Station.submit_tagged t.station
    ~demand:(float_of_int bytes)
    ~tag:bytes

let transfers_completed t = t.transfers

let bytes_completed t = t.bytes

let utilization t ~until = Desim.Station.utilization t.station ~until
