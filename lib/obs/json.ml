type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* The C primitive behind [Printf]'s [%f]/[%g] conversions: for the same
   format, the same bytes as [Printf.sprintf], without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal rendering that parses back to the same float; falls
   back to 17 significant digits, which is always exact. *)
let number_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.0f" x
  else
    let s = format_float "%.15g" x in
    if float_of_string s = x then s else format_float "%.17g" x

(* Two-entry cache of formatted numbers keyed by bit pattern, so
   [-0.0] and [0.0] stay apart (every NaN still renders as "null").
   Both slots start as a real entry (0.0 -> "0"); [victim] is the
   least recently used slot. *)
type memo = { keys : Float.Array.t; texts : string array; mutable victim : int }

let memo () =
  { keys = Float.Array.make 2 0.0; texts = Array.make 2 "0"; victim = 0 }

let same_bits (a : float) b = Int64.bits_of_float a = Int64.bits_of_float b

let add_number memo buf x =
  if same_bits x (Float.Array.unsafe_get memo.keys 0) then begin
    memo.victim <- 1;
    Buffer.add_string buf (Array.unsafe_get memo.texts 0)
  end
  else if same_bits x (Float.Array.unsafe_get memo.keys 1) then begin
    memo.victim <- 0;
    Buffer.add_string buf (Array.unsafe_get memo.texts 1)
  end
  else begin
    let s = number_to_string x in
    let i = memo.victim in
    Float.Array.unsafe_set memo.keys i x;
    Array.unsafe_set memo.texts i s;
    memo.victim <- 1 - i;
    Buffer.add_string buf s
  end

(* Integers below 1e15 in magnitude print as their digits, exactly as
   [number_to_string (float_of_int n)] would; larger ones take that
   float path, rounding included. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int memo buf n =
  if n >= 0 && n < 1_000_000_000_000_000 then add_digits buf n
  else if n < 0 && n > -1_000_000_000_000_000 then begin
    Buffer.add_char buf '-';
    add_digits buf (-n)
  end
  else add_number memo buf (float_of_int n)

let rec needs_escape s i =
  i < String.length s
  && (match String.unsafe_get s i with
     | '"' | '\\' | '\000' .. '\031' -> true
     | _ -> needs_escape s (i + 1))

let hex_digit n = "0123456789abcdef".[n]

let add_string buf s =
  Buffer.add_char buf '"';
  if not (needs_escape s 0) then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 15))
      | c -> Buffer.add_char buf c
    done;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_to_string x)
  | Str s -> add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf name;
        Buffer.add_char buf ':';
        write buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parser: plain recursive descent over the string --- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { input : string; mutable pos : int }

let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | Some _ | None -> continue := false
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> advance c
  | Some got -> parse_error "expected '%c' at %d, got '%c'" ch c.pos got
  | None -> parse_error "expected '%c' at %d, got end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.input
    && String.sub c.input c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else parse_error "invalid literal at %d" c.pos

let utf8_of_code buf code =
  (* Encode one Unicode scalar value; surrogate pairs were already
     combined by the caller. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 c =
  let code = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch ->
      let digit =
        match ch with
        | '0' .. '9' -> Char.code ch - Char.code '0'
        | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
        | _ -> parse_error "invalid \\u escape at %d" c.pos
      in
      code := (!code * 16) + digit
    | None -> parse_error "truncated \\u escape at %d" c.pos);
    advance c
  done;
  !code

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string at %d" c.pos
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | None -> parse_error "truncated escape at %d" c.pos
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let code = hex4 c in
          let code =
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* High surrogate: a low surrogate must follow. *)
              expect c '\\';
              expect c 'u';
              let low = hex4 c in
              if low < 0xDC00 || low > 0xDFFF then
                parse_error "invalid surrogate pair at %d" c.pos;
              0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
            end
            else code
          in
          utf8_of_code buf code
        | ch -> parse_error "invalid escape '\\%c' at %d" ch c.pos));
      loop ()
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance c
    | Some _ | None -> continue := false
  done;
  if c.pos = start then parse_error "expected a value at %d" start;
  let s = String.sub c.input start (c.pos - start) in
  match float_of_string_opt s with
  | Some x -> x
  | None -> parse_error "invalid number %S at %d" s start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input at %d" c.pos
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws c;
        let name = parse_string c in
        skip_ws c;
        expect c ':';
        let value = parse_value c in
        fields := (name, value) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          loop ()
        | Some '}' -> advance c
        | Some ch -> parse_error "expected ',' or '}' at %d, got '%c'" c.pos ch
        | None -> parse_error "unterminated object at %d" c.pos
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        let value = parse_value c in
        items := value :: !items;
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          loop ()
        | Some ']' -> advance c
        | Some ch -> parse_error "expected ',' or ']' at %d, got '%c'" c.pos ch
        | None -> parse_error "unterminated array at %d" c.pos
      in
      loop ();
      List (List.rev !items)
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let of_string s =
  let c = { input = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos < String.length s then
      Error (Printf.sprintf "trailing garbage at %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let member name = function
  | Obj fields -> (
    match List.assoc_opt name fields with Some v -> v | None -> Null)
  | _ -> Null

let to_float = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List items -> Some items | _ -> None
