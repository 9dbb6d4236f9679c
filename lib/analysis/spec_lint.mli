(** Pass 1 — spec_lint: bounded exhaustive certification of a
    [Spec.Data_type.S] against the paper's §2.1 obligations (apply
    determinism and totality on reachable states, prefix closure,
    non-empty sample invocations, canonical [show_state]) and the law
    [respond s i = snd (apply s i)].

    Rule ids: [spec.duplicate-op], [spec.samples-raise],
    [spec.samples-empty], [spec.sample-op-mismatch],
    [spec.gen-undeclared], [spec.gen-raises], [spec.apply-raises],
    [spec.determinism], [spec.respond-disagrees],
    [spec.equal-state-irreflexive],
    [spec.show-state-collision], [spec.show-state-unstable],
    [spec.prefix-closure], plus one [spec.explored] info summary. *)

module Make (T : Spec.Data_type.S) : sig
  val run : unit -> Diagnostic.t list
  (** All findings, one per (rule, subject), each carrying the first
      witness found. *)
end
