(** Structured findings produced by the static-analysis passes. *)

type severity = Error | Warning | Info

val compare_severity : severity -> severity -> int

type t = {
  severity : severity;
  rule : string;  (** dotted rule id, e.g. ["class.kind-mismatch"] *)
  subject : string;  (** what was audited, e.g. ["fifo-queue/enqueue"] *)
  message : string;
  witness : string option;  (** pretty-printed counterexample, if any *)
}

val error : ?witness:string -> rule:string -> subject:string -> string -> t
val warning : ?witness:string -> rule:string -> subject:string -> string -> t
val info : rule:string -> subject:string -> string -> t

val pp : Format.formatter -> t -> unit
(** ["error[rule] subject: message"] plus an indented witness line. *)

val to_json : t -> Core.Json.t
(** One JSON object; [witness] is [null] when absent. *)
