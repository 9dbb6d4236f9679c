(** The JSON string escaper behind every [--json] report. *)

val quote : string -> string
(** A JSON string literal, double quotes included.  A double quote, a
    backslash, newline, carriage return and tab get their
    two-character escapes; the other bytes below 0x20 become
    [\u00XX]; every other byte, UTF-8 included, passes through
    unchanged. *)
