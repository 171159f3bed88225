(** Minimal self-contained JSON reader/printer for the query service.

    The toolchain deliberately carries no JSON dependency (the bench
    harness writes its artifact by hand), so the service parses its
    one-object-per-line protocol with this ~150-line recursive-descent
    parser. Covers all of RFC 8259 except that numbers are read into
    OCaml [int]/[float] (integers that fit an [int] parse as [Int]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Real of float
      (** A float that always renders as a JSON float: an integral value
          keeps a fraction digit ([1.0], not [1]). The parser never
          produces it. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in input order *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an
    error. Errors carry a character offset and a short message. *)

val to_string : t -> string
(** Compact (single-line) rendering. [Float] values print with enough
    digits to round-trip; integral floats print without an exponent. *)

val floats_as_reals : t -> t
(** Every [Float] in a value turned into a [Real], so a parsed document
    re-renders its floats as floats. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] ([None] for other constructors). *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes). *)
