(** The repository's one JSON format: a value type, the string escaper,
    a compact printer and a strict parser. Every report (fault-campaign
    and fuzz coverage, verifier diagnostics, Chrome traces, metrics,
    [BENCH_<run>.json]) is written and read through this module.

    Emitters that spread one document over several lines keep their own
    newlines and print each value on a line with [to_string] or [kv]. *)

type t =
  | Null
  | Bool of bool
  | Num of string
      (** The number's literal text, printed verbatim, so each emitter
          keeps its own format ([%d], [%.3f], [%.6g]). *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [Num] of the decimal integer. *)
val int : int -> t

(** [Num] of [%.6g]; [Null] for a non-finite float. *)
val float : float -> t

(** The string as a JSON literal, quotes included. The double quote and
    the backslash get a backslash in front, newline becomes [\n], every
    other byte below 0x20 becomes [\u00XX]; all other bytes pass
    through. *)
val quote : string -> string

(** Compact printing: no whitespace between tokens. *)
val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

(** [kv k v] is the object member ["k":v], compactly printed. *)
val kv : string -> t -> string

(** Raised by [parse] with the byte offset of the error and a reason. *)
exception Parse_error of int * string

(** Parse one JSON document (RFC 8259) surrounded by optional
    whitespace. Numbers must match the JSON number grammar and keep
    their literal text; [\uXXXX] escapes decode to UTF-8, and a
    surrogate code point (U+D800 to U+DFFF) is an error. *)
val parse : string -> t

(** [parse] of a whole file. *)
val of_file : string -> t

(** {1 Accessors} *)

(** The value under [key] of an object; [None] for a missing key or a
    non-object. *)
val member : string -> t -> t option

(** The elements of a list; [[]] for any other value. *)
val to_list : t -> t list

val to_string_opt : t -> string option
val to_float_opt : t -> float option

(** [Some] only for a number literal that is an integer. *)
val to_int_opt : t -> int option
