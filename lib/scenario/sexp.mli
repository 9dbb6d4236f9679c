(** Minimal s-expressions: the textual substrate of scenario files.

    Scenarios must round-trip through files, journals and the CLI with
    byte-identical rendering, so the format is deliberately tiny and
    fully specified: atoms are printed bare when they contain no
    whitespace, parentheses, quotes or control characters, and quoted
    with backslash escapes otherwise; lists print as space-separated
    children inside parentheses; [;] starts a comment to the end of the
    line.

    One scanner ({!scan}) checks the syntax.  The scenario codec then
    reads the scanned text in place, by offset, without building a
    tree. *)

val add_atom : Buffer.t -> string -> unit
(** Append an atom in its canonical spelling: bare when possible,
    quoted otherwise, with backslash escapes for the double quote, the
    backslash and newline. *)

val add_int : Buffer.t -> int -> unit
(** Append an integer as [string_of_int] renders it; a rational is
    appended by {!Rat.add_to_buffer}. *)

val scan : string -> field:(int -> unit) -> (unit, string) result
(** Check that the string holds exactly one s-expression (surrounding
    whitespace and comments allowed), in one pass.  Errors name the
    offset they were found at.  When the expression is a list, [field]
    receives, in order, the offset of every list directly inside it,
    once that list has been checked. *)

(** {1 Reading scanned text}

    These read a string {!scan} accepted.  An offset names the first
    byte of an element, or the [)] closing the enclosing list. *)

val skip : string -> int -> int
(** The first offset at or after the given one outside whitespace and
    comments. *)

val is_list : string -> int -> bool
val is_close : string -> int -> bool

val first : string -> int -> int
(** The first element of a list, or its [)] when empty. *)

val sibling : string -> int -> int
(** The element after this one, or the enclosing [)]. *)

val count : string -> int -> int
(** Elements from this offset up to the enclosing [)]. *)

val bare_end : string -> int -> int
(** One past the bare atom at this offset; the offset itself when it
    holds a list, a quoted atom or a [)]. *)

val atom_is : string -> int -> string -> bool
(** Whether the element is an atom spelling the given text, bare or
    quoted.  Allocates nothing. *)

val atom_at : string -> int -> string
(** The text of the atom at this offset, escapes resolved. *)
