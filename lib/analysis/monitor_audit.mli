(** Pass — monitor_audit: statically verify a declared monitor viewer
    against the sequential specification.

    Replays a canonical insertion sequence to check the declared
    shape's observation discipline (FIFO / LIFO / max-first /
    last-write / membership) and cross-checks each viewer operation's
    role against the classification witnesses of [Spec.Classify].

    Rule ids: [monitor.none] (info), [monitor.vocabulary] (error),
    [monitor.kind-witness] (error), [monitor.classify] (error),
    [monitor.verified] (info). *)

module Make (T : Spec.Data_type.S) : sig
  val run : unit -> Diagnostic.t list
  (** Searches [Spec.Classify]'s default universe, which includes the
      type's own [T.classification_contexts]. *)
end
