(** Pass 3 — bound_audit: statically verify the generated bound tables
    across a grid of model parameters, and check that every row's cited
    theorem actually applies to the operation's audited classification.

    Rule ids: [bounds.lb-gt-ub], [bounds.lb-regression] (errors, per
    grid point), [bounds.thm2-precondition] .. [bounds.thm5-precondition]
    (errors), [bounds.unknown-source] (warning),
    [bounds.precondition-ok] and [bounds.audited] (info). *)

val run : unit -> Diagnostic.t list
(** Both families of checks over the grid of model shapes [(n, d, u)]
    crossed with eps in [{(1-1/n)u, u}] and X in
    [{0, (d-eps)/2, d-eps}]. *)
