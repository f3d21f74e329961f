(** A minimal JSON value type with a printer and parser.

    The observability layer writes JSONL traces and Chrome trace_event
    files and the tests must read them back, but the toolchain has no
    JSON library baked in — so this is a small, self-contained codec.
    The printer emits valid JSON (escaped strings, no trailing commas)
    and round-trips every finite float exactly: [of_string (to_string v)]
    is structurally equal to [v]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string v] is the compact (single-line) rendering.  Integral
    floats print without a decimal point; non-finite floats print as
    [null] (JSON has no representation for them). *)
val to_string : t -> string

(** [number_to_string x] is how {!to_string} renders [Num x]: integral
    values below 1e15 in magnitude as [%.0f]; otherwise [%.15g] when
    that parses back to [x], else [%.17g]; non-finite values as
    [null].  For [1e-6 <= |x| < 1e15] the text comes from an exact
    renderer written in OCaml (no printf, no strtod); other magnitudes
    go through the C [printf] rule itself.  Either way the bytes are
    [Printf.sprintf]'s. *)
val number_to_string : float -> string

(** {2 Direct writing}

    Appending JSON fragments straight into a buffer, byte-identical to
    the corresponding parts of {!to_string}'s output, for encoders that
    skip building a {!t}. *)

(** A writer's number state: two fixed byte slots caching the last two
    rendered numbers, keyed by bit pattern.  Not thread-safe: one per
    writer. *)
type memo

val memo : unit -> memo

(** [add_number memo buf x] appends [number_to_string x].  It
    allocates nothing unless [x] is outside the exact renderer's range
    (or [buf] grows). *)
val add_number : memo -> Buffer.t -> float -> unit

(** [add_int memo buf n] appends [number_to_string (float_of_int n)],
    without allocating when [|n| < 1e15]. *)
val add_int : memo -> Buffer.t -> int -> unit

(** [add_string buf s] appends [s] as a quoted, escaped JSON string. *)
val add_string : Buffer.t -> string -> unit

(** [of_string s] parses one JSON value, requiring only trailing
    whitespace after it. *)
val of_string : string -> (t, string) result

(** {2 Accessors} — conveniences for decoding objects. *)

(** [member name obj] is the field's value, or [Null] when absent or
    when [obj] is not an object. *)
val member : string -> t -> t

val to_float : t -> float option

val to_int : t -> int option

val to_str : t -> string option

val to_list : t -> t list option
