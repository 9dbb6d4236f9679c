(** Product of two data types: one shared object holding both.

    Linearizability is {e local} (paper §2.3, citing Herlihy-Wing): a
    run over several objects is linearizable iff its restriction to
    each object is.  One way to exercise our single-object machinery on
    multi-object workloads is to fuse objects into a product type whose
    invocations are tagged with the side they act on.  The functor
    below builds that product for any two specifications; operations
    keep their original classification (an operation of the pair
    accesses/mutates exactly what it did on its side).

    Note the product is strictly {e stronger} than two independent
    objects — it serializes the pair as a whole — so linearizability of
    product runs implies linearizability of the per-object projections
    (the converse direction of locality is exercised in the tests by
    checking projections independently). *)

module Make (A : Data_type.S) (B : Data_type.S) = struct
  type state = A.state * B.state
  type invocation = Left of A.invocation | Right of B.invocation
  type response = Left_r of A.response | Right_r of B.response

  let name = A.name ^ "*" ^ B.name
  let initial = (A.initial, B.initial)

  let apply (a, b) = function
    | Left inv ->
        let a', resp = A.apply a inv in
        ((a', b), Left_r resp)
    | Right inv ->
        let b', resp = B.apply b inv in
        ((a, b'), Right_r resp)

  (* Each side's operation names with their prefix, built once, so
     that [op_of] hands out a shared string instead of concatenating
     one per call.  A name a side does not declare is prefixed afresh. *)
  let prefixed side ops = List.map (fun (op, _) -> (op, side ^ op)) ops
  let lefts = prefixed "l:" A.operations
  let rights = prefixed "r:" B.operations

  let rec tagged side op = function
    | (name, full) :: rest ->
        if String.equal name op then full else tagged side op rest
    | [] -> side ^ op

  let op_of = function
    | Left inv -> tagged "l:" (A.op_of inv) lefts
    | Right inv -> tagged "r:" (B.op_of inv) rights

  let operations =
    List.map (fun (op, kind) -> ("l:" ^ op, kind)) A.operations
    @ List.map (fun (op, kind) -> ("r:" ^ op, kind)) B.operations

  let equal_state (a1, b1) (a2, b2) =
    A.equal_state a1 a2 && B.equal_state b1 b2

  let equal_invocation i1 i2 =
    match (i1, i2) with
    | Left a1, Left a2 -> A.equal_invocation a1 a2
    | Right b1, Right b2 -> B.equal_invocation b1 b2
    | Left _, Right _ | Right _, Left _ -> false

  let equal_response r1 r2 =
    match (r1, r2) with
    | Left_r a1, Left_r a2 -> A.equal_response a1 a2
    | Right_r b1, Right_r b2 -> B.equal_response b1 b2
    | Left_r _, Right_r _ | Right_r _, Left_r _ -> false

  let show_state (a, b) =
    Printf.sprintf "(%s, %s)" (A.show_state a) (B.show_state b)

  let pp_state ppf (a, b) =
    Format.fprintf ppf "(%a, %a)" A.pp_state a B.pp_state b

  let pp_invocation ppf = function
    | Left inv -> Format.fprintf ppf "l:%a" A.pp_invocation inv
    | Right inv -> Format.fprintf ppf "r:%a" B.pp_invocation inv

  let pp_response ppf = function
    | Left_r resp -> Format.fprintf ppf "l:%a" A.pp_response resp
    | Right_r resp -> Format.fprintf ppf "r:%a" B.pp_response resp

  let strip_side op =
    match String.index_opt op ':' with
    | Some i -> String.sub op (i + 1) (String.length op - i - 1)
    | None -> invalid_arg ("product: operation without side tag: " ^ op)

  let sample_invocations op =
    if String.length op >= 2 && op.[0] = 'l' then
      List.map (fun inv -> Left inv) (A.sample_invocations (strip_side op))
    else if String.length op >= 2 && op.[0] = 'r' then
      List.map (fun inv -> Right inv) (B.sample_invocations (strip_side op))
    else invalid_arg ("product: unknown operation " ^ op)

  let classification_contexts =
    List.map (List.map (fun inv -> Left inv)) A.classification_contexts
    @ List.map (List.map (fun inv -> Right inv)) B.classification_contexts

  let gen_invocation rng =
    if Random.State.bool rng then Left (A.gen_invocation rng)
    else Right (B.gen_invocation rng)

  let gen_tagged rng ~tag =
    if Random.State.bool rng then Left (A.gen_tagged rng ~tag)
    else Right (B.gen_tagged rng ~tag)

  (* A product is no single shape; per-side monitoring would need the
     locality projection, which the monitors do not see.  Wing-Gong. *)
  let monitor = None
end
