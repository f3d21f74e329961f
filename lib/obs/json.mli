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

(** {2 The byte writer}

    The one encoder behind every JSON byte this library writes:
    {!to_string}, the event encoder ({!Event.write_jsonl}) and the
    JSONL and Chrome sinks.  Each call appends a fragment of JSON,
    byte-identical to the corresponding part of {!to_string}'s
    output, to a growable byte buffer. *)
module Writer : sig
  type json := t

  (** A byte buffer, its fill position and a two-slot cache of the
      last two rendered numbers, keyed by bit pattern.  Not
      thread-safe: one per producer. *)
  type t

  (** [create size] starts with room for [size] bytes; the buffer
      grows as needed, also for a single write larger than it. *)
  val create : int -> t

  (** Bytes written since creation or the last {!clear} or
      {!output}. *)
  val length : t -> int

  (** [clear w] empties the buffer; the number cache is kept. *)
  val clear : t -> unit

  val contents : t -> string

  (** [output oc w] writes the buffered bytes to [oc] and clears. *)
  val output : out_channel -> t -> unit

  (** [append w src] appends the bytes [src] holds; [src] is left as
      it is. *)
  val append : t -> t -> unit

  val char : t -> char -> unit

  (** [literal w s] appends [s] as it is: a key, a separator or a
      whole fixed prefix such as [{"type":"span_end","time":]. *)
  val literal : t -> string -> unit

  (** [number w x] appends [number_to_string x].  It allocates nothing
      unless [x] is outside the exact renderer's range or the buffer
      grows. *)
  val number : t -> float -> unit

  (** [number_at w a i] appends [number_to_string a.(i)] without boxing
      the float: a column of unboxed times is written as it stands. *)
  val number_at : t -> float array -> int -> unit

  (** [int w n] appends [number_to_string (float_of_int n)], without
      allocating when [|n| < 1e15]. *)
  val int : t -> int -> unit

  (** [string w s] appends [s] as a quoted, escaped JSON string. *)
  val string : t -> string -> unit

  (** [value w v] appends {!to_string}[ v]. *)
  val value : t -> json -> unit
end

(** [of_string s] parses one JSON value, requiring only trailing
    whitespace after it. *)
val of_string : string -> (t, string) result

(** {2 Accessors} — conveniences for decoding objects. *)

(** [member name obj] is the field's value, or [Null] when absent or
    when [obj] is not an object. *)
val member : string -> t -> t

val to_float : t -> float option

(** [to_int v] is [Some n] for an integral number inside OCaml's [int]
    range, [None] otherwise. *)
val to_int : t -> int option

val to_str : t -> string option

val to_list : t -> t list option
