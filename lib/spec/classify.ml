(** Executable classification of operations by the paper's algebraic
    properties (§2.1, §3.2, §4.2, §4.3).

    Every definition in the paper is of the form "there exist a context
    sequence rho and instances such that ..." (witness search) or "for
    all rho and instances ..." (bounded refutation search).  The
    checkers below run those searches over a {e universe}: a finite
    pool of context sequences plus the per-operation sample invocations
    declared by the data type.  Existential results ([true] = witness
    found) are sound; universal results are sound refutations when
    [false] and bounded verification when [true].

    The test suite uses these checkers to confirm that every concrete
    data type has exactly the classifications the paper's tables claim
    (Figure 11's containment diagram). *)

type op_report = {
  op : string;
  declared : Op_kind.t;
  discovered_mutator : bool;
  discovered_accessor : bool;
  transposable : bool;
  last_sensitive2 : bool;  (** witness with [k = 2] *)
  last_sensitive3 : bool;  (** witness with [k = 3] *)
  pair_free : bool;
  overwriter : bool;
}

let pp_op_report ppf r =
  let yn b = if b then "yes" else "no" in
  Format.fprintf ppf
    "%-12s declared=%-16s mutator=%-3s accessor=%-3s transposable=%-3s \
     last-sensitive(k=2)=%-3s (k=3)=%-3s pair-free=%-3s overwriter=%s"
    r.op
    (Op_kind.to_string r.declared)
    (yn r.discovered_mutator) (yn r.discovered_accessor) (yn r.transposable)
    (yn r.last_sensitive2) (yn r.last_sensitive3) (yn r.pair_free)
    (yn r.overwriter)

module Make (T : Data_type.S) = struct
  module Sem = Data_type.Semantics (T)

  type universe = { contexts : T.invocation list list }

  let all_samples () =
    List.concat_map (fun (op, _) -> T.sample_invocations op) T.operations

  (* Empty context, all length-<=2 sequences over a trimmed sample pool,
     plus random sequences: enough to exhibit the witnesses for every
     property of the bundled data types, together with the handcrafted
     contexts each type declares. *)
  let default_universe () =
    let take k l = List.filteri (fun i _ -> i < k) l in
    let pool =
      List.concat_map (fun (op, _) -> take 3 (T.sample_invocations op))
        T.operations
    in
    let len1 = List.map (fun i -> [ i ]) pool in
    let len2 =
      List.concat_map (fun i -> List.map (fun j -> [ i; j ]) pool) pool
    in
    let rng = Random.State.make [| 0xC1A55 |] in
    let random_context _ =
      let len = 1 + Random.State.int rng 5 in
      List.init len (fun _ -> T.gen_invocation rng)
    in
    let randoms = List.init 60 random_context in
    { contexts = (([] :: len1) @ len2) @ randoms @ T.classification_contexts }

  (* Contexts paired with their reached states.  Contexts built from
     invocation lists are always legal (state-based semantics). *)
  let contexts_with_states u =
    List.map (fun c -> (c, snd (Sem.perform_seq c))) u.contexts

  let response_in state inv = snd (T.apply state inv)
  let state_then state inv = fst (T.apply state inv)

  (* The first context (in universe order) for which [f] finds a
     witness: each existential class below is one such search, and its
     boolean form is [Option.is_some] of it. *)
  let find_context u f =
    List.find_map (fun (context, s0) -> f context s0) (contexts_with_states u)

  let for_all_contexts u predicate =
    List.for_all (fun (_, s0) -> predicate s0) (contexts_with_states u)

  (* MOP is a mutator iff some instance changes the state detectably:
     the context and that instance. *)
  let find_mutator_witness u op =
    find_context u (fun context s0 ->
        List.find_map
          (fun inv ->
            if T.equal_state s0 (state_then s0 inv) then None
            else Some (context, inv))
          (T.sample_invocations op))

  let is_mutator u op = Option.is_some (find_mutator_witness u op)

  (* AOP is an accessor iff some other instance [mid] changes the
     response of some AOP instance: then rho.aop and rho.mid are legal
     but rho.mid.aop is illegal.  The context, the AOP instance and
     [mid]. *)
  let find_accessor_witness u op =
    find_context u (fun context s0 ->
        List.find_map
          (fun aop_inv ->
            let before = response_in s0 aop_inv in
            List.find_map
              (fun mid ->
                let after = response_in (state_then s0 mid) aop_inv in
                if T.equal_response before after then None
                else Some (context, aop_inv, mid))
              (all_samples ()))
          (T.sample_invocations op))

  let is_accessor u op = Option.is_some (find_accessor_witness u op)

  let discovered_kind u op =
    match (is_mutator u op, is_accessor u op) with
    | true, true -> Some Op_kind.Mixed
    | true, false -> Some Op_kind.Pure_mutator
    | false, true -> Some Op_kind.Pure_accessor
    | false, false -> None

  (* Distinct sample invocations of one operation. *)
  let distinct_pairs invs =
    List.concat_map
      (fun i1 ->
        List.filter_map
          (fun i2 ->
            if T.equal_invocation i1 i2 then None else Some (i1, i2))
          invs)
      invs

  (* Bounded universal check of transposability: no context and pair of
     distinct instances witnesses a violation. *)
  let is_transposable u op =
    let invs = T.sample_invocations op in
    for_all_contexts u (fun s0 ->
        List.for_all
          (fun (inv1, inv2) ->
            let r1 = response_in s0 inv1 and r2 = response_in s0 inv2 in
            let after1 = state_then s0 inv1 and after2 = state_then s0 inv2 in
            (* rho.op1.op2 legal iff op2's recorded response recurs. *)
            T.equal_response (response_in after1 inv2) r2
            && T.equal_response (response_in after2 inv1) r1)
          (distinct_pairs invs))

  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y != x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l

  (* All size-k subsets of [l]. *)
  let rec choose k l =
    if k = 0 then [ [] ]
    else
      match l with
      | [] -> []
      | x :: rest ->
          List.map (fun c -> x :: c) (choose (k - 1) rest) @ choose k rest

  (* Replay instances (invocation plus recorded response) from a state;
     [None] if some response disagrees (the permutation is illegal). *)
  let replay_instances s0 instances =
    List.fold_left
      (fun acc (inv, resp) ->
        match acc with
        | None -> None
        | Some s ->
            if T.equal_response (response_in s inv) resp then
              Some (state_then s inv)
            else None)
      (Some s0) instances

  (* Last-sensitivity with a given [k] (Theorem 3's hypothesis): some
     context rho and k distinct instances such that every permutation
     is legal and permutations with different last elements reach
     different states.  The context and the instances. *)
  let find_last_sensitive_witness u ~k op =
    let invs = T.sample_invocations op in
    let distinct_sets =
      choose k invs
      |> List.filter (fun set ->
             List.for_all
               (fun (a, b) -> not (T.equal_invocation a b))
               (List.concat_map
                  (fun a ->
                    List.filter_map
                      (fun b -> if a == b then None else Some (a, b))
                      set)
                  set))
    in
    find_context u (fun context s0 ->
        List.find_map
          (fun set ->
            let instances =
              List.map (fun inv -> (inv, response_in s0 inv)) set
            in
            let outcomes =
              List.map
                (fun perm ->
                  match replay_instances s0 perm with
                  | None -> None
                  | Some final -> Some (fst (List.nth perm (k - 1)), final))
                (permutations instances)
            in
            if List.exists Option.is_none outcomes then None
            else
              let outcomes = List.filter_map Fun.id outcomes in
              let distinct =
                List.for_all
                  (fun (last1, state1) ->
                    List.for_all
                      (fun (last2, state2) ->
                        T.equal_invocation last1 last2
                        || not (T.equal_state state1 state2))
                      outcomes)
                  outcomes
              in
              if distinct then Some (context, set) else None)
          distinct_sets)

  let is_last_sensitive u ~k op =
    Option.is_some (find_last_sensitive_witness u ~k op)

  (* Pair-freedom (Theorem 4's hypothesis): instances op1, op2 (possibly
     equal) legal after rho but illegal in either sequential order.
     The context and the two instances. *)
  let find_pair_free_witness u op =
    let invs = T.sample_invocations op in
    find_context u (fun context s0 ->
        List.find_map
          (fun inv1 ->
            List.find_map
              (fun inv2 ->
                let r1 = response_in s0 inv1 and r2 = response_in s0 inv2 in
                let after1 = state_then s0 inv1
                and after2 = state_then s0 inv2 in
                if
                  (not (T.equal_response (response_in after1 inv2) r2))
                  && not (T.equal_response (response_in after2 inv1) r1)
                then Some (context, inv1, inv2)
                else None)
              invs)
          invs)

  let is_pair_free u op = Option.is_some (find_pair_free_witness u op)

  (* Bounded universal check: every legal occurrence of the same MOP
     instance before and after an interposed instance leaves equivalent
     states. *)
  let is_overwriter u op =
    is_mutator u op
    && for_all_contexts u (fun s0 ->
           List.for_all
             (fun mop_inv ->
               List.for_all
                 (fun mid ->
                   let direct_resp = response_in s0 mop_inv in
                   let direct_state = state_then s0 mop_inv in
                   let s_mid = state_then s0 mid in
                   let via_resp = response_in s_mid mop_inv in
                   let via_state = state_then s_mid mop_inv in
                   (not (T.equal_response direct_resp via_resp))
                   || T.equal_state direct_state via_state)
                 (all_samples ()))
             (T.sample_invocations op))

  (* The interference relation of §6.1 (generalizing Lipton-Sandberg):
     OP1 interferes with OP2 if some instance of OP1 changes the
     response of some instance of OP2 — then |OP1| + |OP2| >= d for any
     linearizable implementation (the accessor must hear about the
     mutation). *)
  let interferes u ~op1 ~op2 =
    List.exists
      (fun (_, s0) ->
        List.exists
          (fun inv1 ->
            List.exists
              (fun inv2 ->
                let direct = response_in s0 inv2 in
                let via = response_in (state_then s0 inv1) inv2 in
                not (T.equal_response direct via))
              (T.sample_invocations op2))
          (T.sample_invocations op1))
      (contexts_with_states u)

  (* Theorem 5's hypotheses for (OP, AOP): OP transposable, AOP a pure
     accessor, and some context with op0, op1 admitting discriminators
     — AOP arguments whose responses differ (§4.3) — for
     (rho.op0 | rho.op1.op0), (rho.op1 | rho.op0.op1) and
     (rho.op0.op1 | rho.op1).  The context, the two OP instances and
     the three discriminators; a candidate is dropped at the first
     discriminator missing. *)
  let find_thm5_witness u ~op ~aop =
    if
      (not (is_transposable u op))
      || discovered_kind u aop <> Some Op_kind.Pure_accessor
    then None
    else
      let discriminator s1 s2 =
        List.find_opt
          (fun inv ->
            not (T.equal_response (response_in s1 inv) (response_in s2 inv)))
          (T.sample_invocations aop)
      in
      let ( let* ) = Option.bind in
      find_context u (fun context s0 ->
          List.find_map
            (fun (inv0, inv1) ->
              let r0 = response_in s0 inv0 and r1 = response_in s0 inv1 in
              let s_op0 = state_then s0 inv0 in
              let s_op1 = state_then s0 inv1 in
              (* both two-step sequences must be legal *)
              if
                T.equal_response (response_in s_op1 inv0) r0
                && T.equal_response (response_in s_op0 inv1) r1
              then
                let s_op1_op0 = state_then s_op1 inv0 in
                let s_op0_op1 = state_then s_op0 inv1 in
                let* a0 = discriminator s_op0 s_op1_op0 in
                let* a1 = discriminator s_op1 s_op0_op1 in
                let* a2 = discriminator s_op0_op1 s_op1 in
                Some (context, inv0, inv1, a0, a1, a2)
              else None)
            (distinct_pairs (T.sample_invocations op)))

  let thm5_hypotheses u ~op ~aop =
    Option.is_some (find_thm5_witness u ~op ~aop)

  let report u =
    List.map
      (fun (op, declared) ->
        {
          op;
          declared;
          discovered_mutator = is_mutator u op;
          discovered_accessor = is_accessor u op;
          transposable = is_transposable u op;
          last_sensitive2 = is_last_sensitive u ~k:2 op;
          last_sensitive3 = is_last_sensitive u ~k:3 op;
          pair_free = is_pair_free u op;
          overwriter = is_overwriter u op;
        })
      T.operations
end
