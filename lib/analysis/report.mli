(** Aggregated analysis report over all passes. *)

type t

val of_findings : Diagnostic.t list -> t
(** Stable-sorted with errors first. *)

val findings : t -> Diagnostic.t list
val errors : t -> int
val has_errors : t -> bool

val pp_human : Format.formatter -> t -> unit
val to_json : t -> Core.Json.t

val exit_code : t -> int
(** [1] when any Error-severity finding is present, else [0] — the CI
    lint gate. *)
