(** JSON values: the one printer behind every [--json] report and
    appended record, and the one reader that reads them back.  Whole
    reports print {!compact}, records appended one a line {!spaced}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float  (** that many decimals, as [%.*f] *)
  | Sig of float  (** six significant digits, as [%g] *)
  | String of string
  | List of t list
  | Object of (string * t) list  (** keys print in list order *)

val nullable : ('a -> t) -> 'a option -> t
(** [Null] for [None]. *)

val optional : string -> ('a -> t) -> 'a option -> (string * t) list
(** The field for [Some], no field for [None]. *)

val compact : t -> string
(** [{"k":v,...}], no whitespace.  Strings escape a double quote, a
    backslash, newline, carriage return and tab with two characters and
    the other bytes below 0x20 as [\u00XX]; every other byte, UTF-8
    included, passes through.
    @raise Invalid_argument on a nan or infinite float. *)

val spaced : t -> string
(** As {!compact}, with a space after each [,] and [:]. *)

val parse : string -> (t, string) result
(** A minimal reader for one JSON value.  An integer literal that fits
    is an [Int], one with a fraction and no exponent a [Fixed] with its
    decimals, any other number a [Sig]: what {!compact} and {!spaced}
    print reads back to a value that prints the same bytes.  Numbers
    are read as [float_of_string] reads them, so a leading [+] or [0]
    passes; a [\u] escape of a surrogate is refused.  [Error] names
    the byte offset. *)

val member : string -> t -> t
(** An object's value under the key; [Null] if none, or no object. *)

val to_str : t -> string option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option

val to_number : t -> float option
(** An [Int], [Fixed] or [Sig] as a float. *)
