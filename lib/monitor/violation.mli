(** Violation witnesses reported by the per-type monitors.

    Every rejection by a monitor is justified by a {e necessary}
    condition for linearizability of the claimed type — the witness
    names the rule and the minimal set of culprit operations whose
    intervals force the contradiction, so a violation report stands on
    its own without replaying the history. *)

type culprit = {
  index : int;  (** position in the checked history *)
  proc : int;
  obs : Spec.Adt_view.obs;
  start : Rat.t;
  finish : Rat.t;
}

type t = {
  kind : Spec.Adt_view.kind;
  rule : string;  (** dotted rule id, e.g. ["queue.fifo-order"] *)
  message : string;
  culprits : culprit list;  (** offending op first, then its conflicts *)
}

val make :
  kind:Spec.Adt_view.kind ->
  rule:string ->
  culprits:culprit list ->
  string ->
  t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
