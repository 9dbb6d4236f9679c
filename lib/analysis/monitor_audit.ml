(** Pass — monitor_audit: cross-check every declared monitor viewer
    against the sequential specification it claims to observe.

    A data type opts into the O(n log n) linearizability monitors by
    declaring an [Adt_view.viewer]: a shape ([kind]) plus the
    translation between its own invocations/responses and the shape's
    canonical observation vocabulary.  The monitors' soundness leans on
    that declaration being truthful — a queue declaring itself a stack
    would make the monitor reject linearizable histories and accept
    broken ones — so this pass verifies the viewer statically, from the
    sequential semantics alone, before any concurrent history exists:

    - {e discipline}: replaying a canonical insertion sequence through
      [T.apply] and the viewer must exhibit exactly the declared
      shape's removal/observation order (FIFO for queues, LIFO for
      stacks, max-first for priority queues, last-write for registers,
      membership for sets), with every observation landing inside the
      shape's vocabulary;
    - {e classification}: each viewer operation's role must agree with
      the classification witnesses of [Spec.Classify] — the insertion
      must be a discovered mutator, pure observers (peek, has) must be
      discovered accessors and not mutators, destructive observers and
      removals must be discovered mutators.

    Rule ids:
    - [monitor.none] (info) — the type declares no viewer; all of its
      histories go to the Wing-Gong checker;
    - [monitor.vocabulary] (error) — the viewer lacks an operation its
      declared kind's discipline probe requires (a register without a
      read, a container without a take);
    - [monitor.kind-witness] (error) — the canonical sequential replay
      disagrees with the declared discipline; the witness shows the
      invocation sequence with the observed and expected vocabularies;
    - [monitor.classify] (error) — a viewer operation's discovered
      classification contradicts its monitor role;
    - [monitor.verified] (info) — discipline and classification both
      confirm the declared kind. *)

module V = Spec.Adt_view

module Make (T : Spec.Data_type.S) = struct
  module C = Spec.Classify.Make (T)

  let subject = T.name ^ "/monitor"

  let show_invs invs =
    "["
    ^ String.concat "; "
        (List.map (fun i -> Format.asprintf "%a" T.pp_invocation i) invs)
    ^ "]"

  let show_obs l = "[" ^ String.concat "; " (List.map V.obs_to_string l) ^ "]"

  (* Replay canonical invocations from the initial state, collecting
     each step's observation as seen through the viewer. *)
  let replay vw invs =
    let _, acc =
      List.fold_left
        (fun (st, acc) inv ->
          let st', resp = T.apply st inv in
          (st', vw.V.obs inv resp :: acc))
        (T.initial, []) invs
    in
    List.rev acc

  (* The discipline probe: insert 2, 3, 1 and observe.  Which
     observations are expected is exactly what distinguishes the five
     shapes on this one sequence. *)
  let discipline_findings vw =
    let kind = vw.V.kind in
    let missing what =
      [
        Diagnostic.error ~rule:"monitor.vocabulary" ~subject
          (Printf.sprintf "a %s viewer must declare %s"
             (V.kind_to_string kind) what);
      ]
    in
    let probe invs expected =
      let got = replay vw invs in
      if got = expected then []
      else
        [
          Diagnostic.error ~rule:"monitor.kind-witness" ~subject
            ~witness:
              (Printf.sprintf "replaying %s observed %s, expected %s"
                 (show_invs invs) (show_obs got) (show_obs expected))
            (Printf.sprintf
               "sequential replay contradicts the declared %s discipline"
               (V.kind_to_string kind));
        ]
    in
    let puts = List.map vw.V.put [ 2; 3; 1 ] in
    let put_obs = [ V.Put 2; V.Put 3; V.Put 1 ] in
    (* the distinguished element each shape exposes after 2, 3, 1 *)
    let head =
      match kind with
      | V.Register -> 1 (* last write *)
      | V.Queue -> 2 (* first in *)
      | V.Stack -> 1 (* last in *)
      | V.Priority_queue -> 3 (* max *)
      | V.Set -> 0 (* sets have no distinguished element *)
    in
    match kind with
    | V.Register -> (
        match vw.V.peek with
        | None -> missing "a read (peek)"
        | Some peek ->
            probe (puts @ [ peek ]) (put_obs @ [ V.Peek (Some head) ]))
    | V.Set -> (
        match (vw.V.has, vw.V.drop) with
        | None, _ -> missing "a membership test (has)"
        | _, None -> missing "a removal (drop)"
        | Some has, Some drop ->
            probe
              (puts @ [ has 3; has 7; drop 3; has 3 ])
              (put_obs
              @ [ V.Has (3, true); V.Has (7, false); V.Drop 3; V.Has (3, false) ]
              ))
    | V.Queue | V.Stack | V.Priority_queue -> (
        match vw.V.take with
        | None -> missing "a destructive observer (take)"
        | Some take ->
            let takes =
              match kind with
              | V.Queue -> [ 2; 3; 1 ]
              | V.Stack -> [ 1; 3; 2 ]
              | _ -> [ 3; 2; 1 ]
            in
            let peeks, peek_obs =
              match vw.V.peek with
              | None -> ([], [])
              | Some peek -> ([ peek ], [ V.Peek (Some head) ])
            in
            probe
              (puts @ peeks @ [ take; take; take; take ])
              (put_obs @ peek_obs
              @ List.map (fun v -> V.Take (Some v)) takes
              @ [ V.Take None ]))

  (* Classification cross-check: the role the viewer assigns each
     operation implies a classification, which must agree with the one
     the witness searches discover. *)
  let classify_findings u vw =
    let check role inv ~mutator ~pure =
      let op = T.op_of inv in
      let is_m = C.is_mutator u op and is_a = C.is_accessor u op in
      let fail fmt =
        Printf.ksprintf
          (fun message ->
            [
              Diagnostic.error ~rule:"monitor.classify"
                ~subject:(T.name ^ "/" ^ op) message;
            ])
          fmt
      in
      if mutator && not is_m then
        fail "the viewer's %s must be a mutator, but no mutation witness \
              exists in the explored universe" role
      else if pure && is_m then
        fail "the viewer's %s must be a pure observer, but a mutation \
              witness exists" role
      else if pure && not is_a then
        fail "the viewer's %s must be an accessor, but no accessor witness \
              exists in the explored universe" role
      else []
    in
    check "insertion (put)" (vw.V.put 1) ~mutator:true ~pure:false
    @ (match vw.V.take with
      | Some take -> check "destructive observer (take)" take ~mutator:true ~pure:false
      | None -> [])
    @ (match vw.V.peek with
      | Some peek -> check "observer (peek)" peek ~mutator:false ~pure:true
      | None -> [])
    @ (match vw.V.has with
      | Some has -> check "membership test (has)" (has 1) ~mutator:false ~pure:true
      | None -> [])
    @
    match vw.V.drop with
    | Some drop -> check "removal (drop)" (drop 1) ~mutator:true ~pure:false
    | None -> []

  let run () =
    match T.monitor with
    | None ->
        [
          Diagnostic.info ~rule:"monitor.none" ~subject
            "no declared monitor viewer; every history of this type is \
             checked by Wing-Gong";
        ]
    | Some vw -> (
        let u = C.default_universe () in
        match discipline_findings vw @ classify_findings u vw with
        | [] ->
            [
              Diagnostic.info ~rule:"monitor.verified" ~subject
                (Printf.sprintf
                   "declared %s monitor confirmed by sequential discipline \
                    replay and classification witnesses"
                   (V.kind_to_string vw.V.kind));
            ]
        | findings -> findings)
end
