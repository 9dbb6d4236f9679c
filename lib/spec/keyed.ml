(** Indexed family of one data type: {!Product} generalized from a
    fixed pair to arbitrarily many independent instances addressed by
    an integer key.

    Linearizability is {e local} (paper §2.3): a run over the family is
    linearizable iff its restriction to each key is.  The family type
    lets the single-object machinery — Algorithm 1, the baselines, the
    runtime — serve a whole keyspace unchanged, while a certifier may
    exploit locality in the other direction and check each key's
    projection independently with the per-type monitors (that is what
    the sharded runtime in [lib/shard] does; like {!Product}, the
    fused family itself carries no single-shape monitor).

    States are canonical up to [equal_state]: the state is a flat
    key-sorted chain, one block per touched key, and
    [equal_state]/[show_state] disregard keys that are still in (or
    back at) their initial state — so two family states are
    [equal_state] iff they are observationally indistinguishable,
    provided [T]'s states are themselves canonical.  The filtering
    happens at comparison time, not on every [apply]: probing
    [T.equal_state s T.initial] per update would cost O(|sub-state|)
    on types whose equality normalizes (the batched queue), turning a
    long single-key run quadratic. *)

module Make (T : Data_type.S) = struct
  (* [Node (k, s, rest)]: key [k] has sub-state [s]; keys ascend along
     the chain. *)
  type state = Nil | Node of int * T.state * state
  type invocation = { key : int; inv : T.invocation }
  type response = T.response

  let name = "keyed-" ^ T.name
  let initial = Nil

  let rec find key = function
    | Nil -> T.initial
    | Node (k, s, rest) ->
        if k < key then find key rest else if k = key then s else T.initial

  (* Replace [key]'s sub-state, keeping the chain key-sorted.  Keys
     that have returned to their initial sub-state stay in the chain
     (skipped only at comparison time, below). *)
  let rec update key s' = function
    | Nil -> Node (key, s', Nil)
    | Node (k, s, rest) as node ->
        if k < key then Node (k, s, update key s' rest)
        else if k = key then Node (key, s', rest)
        else Node (key, s', node)

  (* An operation that leaves its key's sub-state physically unchanged
     (a read, a failed take) leaves the chain as it is. *)
  let apply st { key; inv } =
    let s = find key st in
    let s', resp = T.apply s inv in
    ((if s' == s then st else update key s' st), resp)

  (* Operation names are the underlying type's, untagged: the family
     has the same operation set (and classification) as its element
     type, so latency grouping and Algorithm 1's AOP/MOP/OOP dispatch
     aggregate across keys. *)
  let op_of { inv; _ } = T.op_of inv
  let operations = T.operations

  (* Canonical view: the first node at or after [st] whose sub-state
     is distinguishable from untouched. *)
  let rec strip = function
    | Node (_, s, rest) when T.equal_state s T.initial -> strip rest
    | st -> st

  let rec equal_state st1 st2 =
    match (strip st1, strip st2) with
    | Nil, Nil -> true
    | Node (k1, s1, r1), Node (k2, s2, r2) ->
        k1 = k2 && T.equal_state s1 s2 && equal_state r1 r2
    | Nil, Node _ | Node _, Nil -> false

  let equal_invocation i1 i2 =
    i1.key = i2.key && T.equal_invocation i1.inv i2.inv

  let equal_response = T.equal_response

  let show_state st =
    let rec shown acc st =
      match strip st with
      | Nil -> List.rev acc
      | Node (k, s, rest) ->
          shown (Printf.sprintf "%d:%s" k (T.show_state s) :: acc) rest
    in
    "{" ^ String.concat "; " (shown [] st) ^ "}"

  let pp_state ppf st = Format.pp_print_string ppf (show_state st)

  let pp_invocation ppf { key; inv } =
    Format.fprintf ppf "k%d:%a" key T.pp_invocation inv

  let pp_response = T.pp_response

  (* Two keys suffice to exhibit the element type's algebraic
     properties plus key independence. *)
  let sample_invocations op =
    List.concat_map
      (fun inv -> [ { key = 0; inv }; { key = 1; inv } ])
      (T.sample_invocations op)

  let classification_contexts =
    List.map (List.map (fun inv -> { key = 0; inv })) T.classification_contexts

  let gen_invocation rng =
    { key = Random.State.int rng 4; inv = T.gen_invocation rng }

  let gen_tagged rng ~tag =
    { key = Random.State.int rng 4; inv = T.gen_tagged rng ~tag }

  let monitor = None
end
