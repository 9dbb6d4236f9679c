(** Pass 2 — class_audit: cross-check declared [Op_kind]s against the
    classification discovered by [Spec.Classify]'s searches, reporting
    concrete counterexample witnesses on mismatch.

    Rule ids: [class.kind-mismatch] (error, with witness),
    [class.no-effect] (warning), [class.fig11-last-sensitive] and
    [class.fig11-pair-free] (errors — the searches contradict the
    paper's Figure 11 containments), [class.verified] (info). *)

module Make (T : Spec.Data_type.S) : sig
  val run : unit -> Diagnostic.t list
  (** Searches [Spec.Classify]'s default universe, which includes the
      type's own [T.classification_contexts]. *)
end
