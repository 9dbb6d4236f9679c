(** Pass 2 — class_audit: cross-check every operation's {e declared}
    [Op_kind] against the classification {e discovered} by the witness
    and refutation searches of [Spec.Classify].

    The declared kinds drive Algorithm 1's AOP/MOP/OOP dispatch: an op
    declared a pure accessor skips the mutator broadcast entirely, so a
    mis-declaration silently produces non-linearizable runs {e and}
    invalid bound-table rows — without any arithmetic failing.  On a
    mismatch this pass reports the concrete counterexample behind the
    discovery (the context sequence and instances), via the witness
    extractors in [Spec.Classify].

    Rule ids:
    - [class.kind-mismatch] (error) — declared kind disagrees with the
      discovered one; witness attached whenever the mismatch direction
      admits one (a declared-but-undiscovered property is the absence
      of a witness over the whole universe, reported as such);
    - [class.no-effect] (warning) — the operation neither mutates nor
      accesses in the explored universe;
    - [class.fig11-last-sensitive] / [class.fig11-pair-free] (error) —
      a discovered class violates Figure 11's containments
      (last-sensitive ⊆ mutators; pair-free ⊆ mutators ∩ accessors,
      Lemma 3) — an internal inconsistency of the searches themselves;
    - [class.verified] (info) — declared and discovered kinds agree;
      records the discovered per-op flags. *)

module Make (T : Spec.Data_type.S) = struct
  module C = Spec.Classify.Make (T)

  let subject op = T.name ^ "/" ^ op
  let show_inv inv = Format.asprintf "%a" T.pp_invocation inv

  let show_context ctx =
    "[" ^ String.concat "; " (List.map show_inv ctx) ^ "]"

  let mismatch_witness u op ~declared ~discovered =
    let open Spec.Op_kind in
    if is_mutator discovered && not (is_mutator declared) then
      Option.map
        (fun (ctx, inv) ->
          Printf.sprintf "after context %s, %s changes the state"
            (show_context ctx) (show_inv inv))
        (C.find_mutator_witness u op)
    else if is_accessor discovered && not (is_accessor declared) then
      Option.map
        (fun (ctx, aop, mid) ->
          Printf.sprintf
            "after context %s, interposing %s changes the response of %s"
            (show_context ctx) (show_inv mid) (show_inv aop))
        (C.find_accessor_witness u op)
    else None

  let audit_op u (op, declared) =
    match C.discovered_kind u op with
    | None ->
        [
          Diagnostic.warning ~rule:"class.no-effect" ~subject:(subject op)
            (Printf.sprintf
               "declared %s, but no instance mutates the state or has a \
                context-dependent response in the explored universe"
               (Spec.Op_kind.to_string declared));
        ]
    | Some discovered when not (Spec.Op_kind.equal discovered declared) ->
        let witness = mismatch_witness u op ~declared ~discovered in
        let message =
          Printf.sprintf "declared %s but the search discovered %s%s"
            (Spec.Op_kind.to_string declared)
            (Spec.Op_kind.to_string discovered)
            (if Option.is_none witness then
               " (no witness exists for the declared property anywhere in \
                the universe)"
             else "")
        in
        [
          Diagnostic.error ?witness ~rule:"class.kind-mismatch"
            ~subject:(subject op) message;
        ]
    | Some _ ->
        [
          Diagnostic.info ~rule:"class.verified" ~subject:(subject op)
            (Printf.sprintf "declared %s confirmed"
               (Spec.Op_kind.to_string declared));
        ]

  (* Figure 11 containments, checked on the searches' own output: a
     violation means the searches disagree with the paper's Lemma 3 /
     containment diagram, i.e. the analyzer's ground truth is broken. *)
  let containment_findings u =
    List.concat_map
      (fun (r : Spec.Classify.op_report) ->
        let ls =
          if
            (r.last_sensitive2 || r.last_sensitive3)
            && not r.discovered_mutator
          then
            [
              Diagnostic.error ~rule:"class.fig11-last-sensitive"
                ~subject:(subject r.op)
                "discovered last-sensitive but not a mutator (Figure 11 \
                 containment violated)";
            ]
          else []
        in
        let pf =
          if
            r.pair_free
            && not (r.discovered_mutator && r.discovered_accessor)
          then
            [
              Diagnostic.error ~rule:"class.fig11-pair-free"
                ~subject:(subject r.op)
                "discovered pair-free but not both mutator and accessor \
                 (Lemma 3 violated)";
            ]
          else []
        in
        ls @ pf)
      (C.report u)

  let run () =
    let u = C.default_universe () in
    List.concat_map (audit_op u) T.operations @ containment_findings u
end
