(** A minimal JSON value type with an emitter and a parser.

    The observability layer (DESIGN.md Section 5c) must serialise metric
    snapshots without adding dependencies, so this module implements just
    enough of RFC 8259: the emitter escapes strings, renders non-finite
    floats as [null] (JSON has no literal for them), and pretty-prints
    with two-space indentation; the parser accepts anything the emitter
    produces (plus standard escapes), which the test suite uses to verify
    emitted metric files are well-formed. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Indented (two-space) pretty-printed rendering — what [--metrics] and
    trace files use so they stay readable in diffs. Finite floats are
    printed with the fewest significant digits that parse back to the
    bit-identical value, so emit/parse round-trips exactly. *)

val to_string_compact : t -> string
(** Single-line rendering with no whitespace, for embedding JSON in log
    lines or size-sensitive outputs. Parses to the same value as
    {!to_string}. *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input or trailing characters. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the value bound to [key]; [None] for
    missing keys or non-object values. *)

val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts both [Int] and [Float]. *)
