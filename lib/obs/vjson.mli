(** Minimal JSON values: the one type every JSON document of the
    program is built as — validation, tail and optimize reports, batch
    and serve records, protocol frames, telemetry metrics, the run
    ledger, Chrome traces and the bench files.

    The printer emits numbers with enough precision ([%.17g]) that
    parsing its output reproduces the same floats, so a report written,
    committed, and re-parsed compares bit-for-bit against a fresh run —
    the golden-diff engine's notion of "identical" rests on this
    round-trip.  Every output of {!to_string} is accepted by {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : ?indent:int -> t -> string
(** Serialize; [indent > 0] pretty-prints with that many spaces per
    level (and a trailing newline), [indent = 0] (default) is compact.
    Finite numbers round-trip bit-exactly through {!parse}; NaN and the
    infinities have no JSON spelling and print as [null].  The output
    is always valid UTF-8: a byte sequence in a string that is not
    valid UTF-8 is written as U+FFFD. *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input.  [\uXXXX] escapes are
    decoded to UTF-8, surrogate pairs combined; a lone surrogate is a
    {!Parse_error}, and so is a string holding invalid UTF-8.  Numbers
    follow the RFC 8259 grammar (optional minus, integer part without
    leading zeros, optional fraction and exponent, each with at least
    one digit): a leading [+], a bare [.] or a leading zero is a
    {!Parse_error}. *)

val parse_file : string -> t

val mem : string -> t -> t option
(** Object member lookup; [None] on missing key or non-object. *)

val get : string -> t -> t
(** Like {!mem} but raises {!Parse_error} on a missing key. *)

val str : t -> string
val num : t -> float
val bool : t -> bool
val arr : t -> t list
(** Coercions; raise {!Parse_error} on a shape mismatch. *)
