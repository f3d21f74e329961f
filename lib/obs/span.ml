type id = int

let none = 0

let begin_ ctx ~time ?parent ~name ~cat ?server ?file_set ?epoch
    ?(attrs = []) () =
  if not (Ctx.tracing ctx) then none
  else begin
    let id = Ctx.alloc_span ctx in
    let parent =
      match parent with
      | Some p when p <> none -> Some p
      | _ -> None
    in
    Ctx.emit ctx
      (Event.Span_begin
         { time; id; parent; name; cat; server; file_set; epoch; attrs });
    id
  end

let end_ ctx ~time ~id ~name ~cat ?server ?outcome ?(attrs = []) () =
  if id <> none then
    Ctx.emit ctx
      (Event.Span_end { time; id; name; cat; server; outcome; attrs })

module Request = struct
  type nonrec t = { ctx : Ctx.t; src : Record.source }

  let create ctx ~clock ~file_sets ~ops =
    { ctx; src = { Record.clock; file_sets; ops } }

  let open_ r kind ~parent ~server ~fs ~client ~op =
    if not (Ctx.tracing r.ctx) then none
    else begin
      let id = Ctx.alloc_span r.ctx in
      Ctx.record r.ctx r.src kind ~id ~parent ~server ~fs ~client ~op;
      id
    end

  let begin_ r ~fs ~client ~op =
    open_ r Record.Request_begin ~parent:none ~server:0 ~fs ~client ~op

  let buffered_begin r ~parent ~fs =
    open_ r Record.Buffered_begin ~parent ~server:0 ~fs ~client:0 ~op:0

  let queue_begin r ~parent ~server ~fs =
    open_ r Record.Queue_begin ~parent ~server ~fs ~client:0 ~op:0

  let service_begin r ~parent ~server ~fs =
    open_ r Record.Service_begin ~parent ~server ~fs ~client:0 ~op:0

  let close r kind ~id ~server =
    if id <> none then
      Ctx.record r.ctx r.src kind ~id ~parent:none ~server ~fs:0 ~client:0
        ~op:0

  let end_ r ~id ~server = close r Record.Request_end ~id ~server

  let buffered_end r ~id ~server = close r Record.Buffered_end ~id ~server

  let queue_end r ~id ~server = close r Record.Queue_end ~id ~server

  let service_end r ~id ~server = close r Record.Service_end ~id ~server
end
