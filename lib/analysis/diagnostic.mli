(** Structured findings produced by the static-analysis passes. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
val compare_severity : severity -> severity -> int

type t = {
  severity : severity;
  rule : string;  (** dotted rule id, e.g. ["class.kind-mismatch"] *)
  subject : string;  (** what was audited, e.g. ["fifo-queue/enqueue"] *)
  message : string;
  witness : string option;  (** pretty-printed counterexample, if any *)
}

val make :
  ?witness:string ->
  severity:severity ->
  rule:string ->
  subject:string ->
  string ->
  t

val error : ?witness:string -> rule:string -> subject:string -> string -> t
val warning : ?witness:string -> rule:string -> subject:string -> string -> t
val info : ?witness:string -> rule:string -> subject:string -> string -> t

val pp : Format.formatter -> t -> unit
(** ["error[rule] subject: message"] plus an indented witness line. *)

val pp_json : Format.formatter -> t -> unit
(** One JSON object; [witness] is [null] when absent. *)
