type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- numbers ---

   The rule: non-finite values print as [null]; integral values below
   1e15 in magnitude as their digits ([%.0f], so -0.0 is "-0");
   anything else as [%.15g] when that parses back to the same float,
   else as [%.17g], which always does.  The renderer below produces
   those bytes without printf or strtod for 1e-6 <= |x| < 1e15 (DESIGN
   section 7 has the exactness argument); other magnitudes take the
   printf rule itself. *)

(* The C primitive behind [Printf]'s [%g] conversions: for the same
   format, the same bytes as [Printf.sprintf], without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let printf_number x =
  let s = format_float "%.15g" x in
  if float_of_string s = x then s else format_float "%.17g" x

(* 10^0 .. 10^22, the powers of ten a double holds exactly. *)
let pow10 = Array.init 23 (fun i -> float_of_string ("1e" ^ string_of_int i))

(* Functions below take the caller's (already boxed) float and return
   ints or bools: without flambda a float argument or result that is
   computed on the way would be boxed, and a render must not allocate. *)

(* [|x| * 10^s] rounded half-to-even to an integer, exactly, for
   [0 <= s <= 22] and a product below 10^17.  [hi + lo] is the exact
   product (an error-free transformation: [lo] is the rounding error of
   [hi], which a fused multiply-add computes exactly), and the rounding
   decision compares exactly representable quantities only. *)
let scaled x s =
  let ax = Float.abs x in
  let p = Array.unsafe_get pow10 s in
  let hi = ax *. p in
  let lo = Float.fma ax p (-.hi) in
  if hi < 0x1p52 then begin
    (* [hi] may have a fraction; [|lo|] is below half its ulp, so the
       result is [n] or [n + 1].  [hi - (n + 0.5)] is exact. *)
    let n = int_of_float hi in
    let d = hi -. (float_of_int n +. 0.5) and e = -.lo in
    if d > e then n + 1 else if d < e then n else n + (n land 1)
  end
  else begin
    (* [hi] is an integer; [lo] may exceed 1 in magnitude.  [c] is
       [floor lo], so the product is [hi + c] plus a fraction that
       compares with one half exactly as [lo] compares with
       [c + 0.5]. *)
    let t = float_of_int (int_of_float lo) in
    let c = if t > lo then t -. 1.0 else t in
    let n = int_of_float hi + int_of_float c and m = c +. 0.5 in
    if lo > m then n + 1 else if lo < m then n else n + (n land 1)
  end

(* [|x| >= 10^j], exactly, for [-22 <= j <= 22]. *)
let at_least_pow10 x j =
  let ax = Float.abs x in
  if j >= 0 then ax >= Array.unsafe_get pow10 j
  else
    let p = Array.unsafe_get pow10 (-j) in
    let hi = ax *. p in
    hi > 1.0 || (hi = 1.0 && Float.fma ax p (-.hi) >= 0.0)

let digit n = Char.unsafe_chr (48 + n)

(* The [len] decimal digits of [n] at [b.[pos .. pos + len - 1]]. *)
let put_digits b pos len n =
  let n = ref n in
  for i = pos + len - 1 downto pos do
    Bytes.unsafe_set b i (digit (!n mod 10));
    n := !n / 10
  done

let rec count_digits n = if n < 10 then 1 else 1 + count_digits (n / 10)

(* [%.<p>g] of the value [n * 10^(e - p + 1)], where [n] has exactly
   [p] digits and [e] is the decimal exponent: exponent form when
   [e < -4] or [e >= p], trailing zeros of the fraction stripped.
   Returns the position after the text. *)
let put_g b pos n p e =
  let n = ref n and l = ref p in
  while !l > 1 && !n mod 10 = 0 do
    n := !n / 10;
    decr l
  done;
  let n = !n and l = !l in
  if e < -4 || e >= p then begin
    (* d[.ddd]e±XX: the digits go one place right, then the first
       moves back in front of the point. *)
    put_digits b (pos + 1) l n;
    Bytes.unsafe_set b pos (Bytes.unsafe_get b (pos + 1));
    Bytes.unsafe_set b (pos + 1) '.';
    let pos = if l > 1 then pos + l + 1 else pos + 1 in
    Bytes.unsafe_set b pos 'e';
    Bytes.unsafe_set b (pos + 1) (if e < 0 then '-' else '+');
    (* In range, [|e| < 100]. *)
    put_digits b (pos + 2) 2 (abs e);
    pos + 4
  end
  else if e >= 0 then
    if l <= e + 1 then begin
      put_digits b pos l n;
      Bytes.unsafe_fill b (pos + l) (e + 1 - l) '0';
      pos + e + 1
    end
    else begin
      put_digits b (pos + 1) l n;
      Bytes.unsafe_blit b (pos + 1) b pos (e + 1);
      Bytes.unsafe_set b (pos + e + 1) '.';
      pos + l + 1
    end
  else begin
    let z = -e - 1 in
    Bytes.unsafe_set b pos '0';
    Bytes.unsafe_set b (pos + 1) '.';
    Bytes.unsafe_fill b (pos + 2) z '0';
    put_digits b (pos + 2 + z) l n;
    pos + 2 + z + l
  end

(* The renderer's own range: 10^-6 <= |x| < 10^15, where both
   [10^(14 - k)] and [10^(16 - k)] are exact. *)
let min_exp = -6
and max_exp = 14

(* The exact path for a finite [x] that is not an integer below 1e15:
   writes the text at [b.[pos ..]] and returns the position after it,
   or returns [-1], having written nothing, when [x] lies outside the
   range. *)
let put_exact b pos x =
  (* floor (log10 |x|) is [k0] or [k0 + 1], where [k0] is
     floor (e2 * log10 2) for the binary exponent [e2]. *)
  let e2 =
    ((Int64.to_int (Int64.bits_of_float x) lsr 52) land 0x7ff) - 1023
  in
  let k0 = (e2 * 78913) asr 18 in
  if k0 < min_exp - 1 || k0 > max_exp then -1
  else
    let k = if at_least_pow10 x (k0 + 1) then k0 + 1 else k0 in
    if k < min_exp || k > max_exp then -1
    else begin
      let pos =
        if Float.sign_bit x then begin
          Bytes.unsafe_set b pos '-';
          pos + 1
        end
        else pos
      in
      let s15 = 14 - k in
      let n15 = scaled x s15 in
      (* Clinger: [n15 < 2^53] and [10^s15] are exact doubles, so one
         correctly rounded division is what strtod returns for the
         [%.15g] text. *)
      if float_of_int n15 /. Array.unsafe_get pow10 s15 = Float.abs x then
        if n15 = 1_000_000_000_000_000 then
          put_g b pos 100_000_000_000_000 15 (k + 1)
        else put_g b pos n15 15 k
      else
        let n17 = scaled x (16 - k) in
        if n17 = 100_000_000_000_000_000 then
          put_g b pos 10_000_000_000_000_000 17 (k + 1)
        else put_g b pos n17 17 k
    end

(* Writes [x]'s text at [b.[pos ..]] (at most 24 bytes) and returns its
   length. *)
let render b pos x =
  if not (Float.is_finite x) then begin
    Bytes.blit_string "null" 0 b pos 4;
    4
  end
  else
    let ax = Float.abs x in
    if ax < 1e15 && float_of_int (int_of_float ax) = ax then begin
      let n = int_of_float ax in
      let sign = if Float.sign_bit x then 1 else 0 in
      if sign = 1 then Bytes.unsafe_set b pos '-';
      let l = count_digits n in
      put_digits b (pos + sign) l n;
      sign + l
    end
    else
      let stop = put_exact b pos x in
      if stop >= 0 then stop - pos
      else begin
        let s = printf_number x in
        Bytes.blit_string s 0 b pos (String.length s);
        String.length s
      end

let number_to_string x =
  let b = Bytes.create 24 in
  Bytes.sub_string b 0 (render b 0 x)

(* Two-entry cache of rendered numbers keyed by bit pattern, so [-0.0]
   and [0.0] stay apart (every NaN still renders as "null").  Slot [i]
   is [texts.[i * slot .. i * slot + lens.(i) - 1]]; a miss renders
   straight into the least recently used slot ([victim]) and only then
   takes its key, so a slot never holds a half-written text.  Both
   slots start as a real entry (0.0 -> "0"). *)
let slot = 32

type memo = {
  keys : Float.Array.t;
  lens : int array;
  texts : Bytes.t;
  mutable victim : int;
}

let memo () =
  let texts = Bytes.make (2 * slot) '0' in
  { keys = Float.Array.make 2 0.0; lens = [| 1; 1 |]; texts; victim = 0 }

let same_bits (a : float) b = Int64.bits_of_float a = Int64.bits_of_float b

let add_number memo buf x =
  let i =
    if same_bits x (Float.Array.unsafe_get memo.keys 0) then 0
    else if same_bits x (Float.Array.unsafe_get memo.keys 1) then 1
    else begin
      let i = memo.victim in
      Array.unsafe_set memo.lens i (render memo.texts (i * slot) x);
      Float.Array.unsafe_set memo.keys i x;
      i
    end
  in
  memo.victim <- 1 - i;
  Buffer.add_subbytes buf memo.texts (i * slot) (Array.unsafe_get memo.lens i)

(* Integers below 1e15 in magnitude print as their digits, exactly as
   [number_to_string (float_of_int n)] would; larger ones take that
   float path, rounding included. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (digit (n mod 10))

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

let rec write memo buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> add_number memo buf x
  | Str s -> add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write memo buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf name;
        Buffer.add_char buf ':';
        write memo buf value)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write (memo ()) buf v;
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
