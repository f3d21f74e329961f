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

let end_ ctx ~time ~id ~name ~cat ?server ?outcome () =
  if id <> none then
    Ctx.emit ctx (Event.Span_end { time; id; name; cat; server; outcome })
