(** Linearizability checker (paper §2.3).

    Given the completed operations of a run — invocation and response
    real times included — decide whether some permutation [pi] of the
    operations is (i) legal for the sequential specification and
    (ii) consistent with the real-time order: if [op1]'s response time
    precedes [op2]'s invocation time then [op1] comes before [op2].

    The search is the classic Wing–Gong DFS: repeatedly choose a
    {e minimal} remaining operation (one not preceded by any other
    remaining operation) whose recorded response matches the
    specification, and recurse.  Visited (remaining-set, state) pairs
    are memoized, which keeps the search polynomial for the
    low-concurrency histories our simulator produces (at most one
    pending operation per process).

    States are {e interned}: the canonical rendering [T.show_state] is
    produced once per distinct reached state and mapped to a small
    integer id, so the memo key is an [(int list * int)] pair and DFS
    revisits neither re-render nor re-hash state strings.  Transitions
    [(state id, op index)] are cached too, so [T.apply] runs once per
    distinct (state, operation) pair over the whole search. *)

exception
  Node_budget_exceeded of {
    nodes : int;  (** DFS nodes visited when the budget tripped *)
    prefix : int;  (** longest linearized prefix reached (operations) *)
    total : int;  (** operations in the history being checked *)
  }
(* Raised outside the functor so every instantiation shares the one
   constructor and generic drivers (the sweep engine) can catch it.
   The payload names how far the search got, so a budget abort reads
   as "explored N nodes, linearized at most P of T operations" instead
   of a bare exception name. *)

let pp_budget_exceeded ppf (nodes, prefix, total) =
  Format.fprintf ppf
    "linearizability search aborted after %d nodes (deepest prefix %d of %d \
     operations)"
    nodes prefix total

module Make (T : Spec.Data_type.S) = struct
  type op = (T.invocation, T.response) Sim.Trace.operation

  let pp_op ppf (op : op) =
    Format.fprintf ppf "p%d: %a -> %a @@ [%a, %a]" op.proc T.pp_invocation
      op.inv T.pp_response op.resp Rat.pp op.inv_time Rat.pp op.resp_time

  (* [a] precedes [b] when [a] responds strictly before [b] is invoked. *)
  let precedes (a : op) (b : op) = Rat.lt a.resp_time b.inv_time

  let positions ?max_nodes (arr : op array) : int array option =
    let total = Array.length arr in
    (* State interning: canonical rendering -> dense id.  [T.show_state]
       runs once per distinct state; everything downstream works with
       the id. *)
    let ids : (string, int) Hashtbl.t = Hashtbl.create 97 in
    let states : (int, T.state) Hashtbl.t = Hashtbl.create 97 in
    let intern state =
      let rendered = T.show_state state in
      match Hashtbl.find_opt ids rendered with
      | Some id -> id
      | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids rendered id;
          Hashtbl.add states id state;
          id
    in
    (* Transition cache: (state id, op index) -> successor state id when
       the recorded response matches the specification, [None] when it
       does not.  Each distinct transition applies (and renders) once. *)
    let transitions : (int * int, int option) Hashtbl.t = Hashtbl.create 97 in
    let step sid i =
      let key = (sid, i) in
      match Hashtbl.find_opt transitions key with
      | Some cached -> cached
      | None ->
          let op = arr.(i) in
          let state', resp = T.apply (Hashtbl.find states sid) op.inv in
          let result =
            if T.equal_response resp op.resp then Some (intern state')
            else None
          in
          Hashtbl.add transitions key result;
          result
    in
    (* Memo of dead search nodes: remaining index set (kept sorted — it
       is only ever filtered from the sorted [0..total-1]) paired with
       the interned state id. *)
    let dead : (int list * int, unit) Hashtbl.t = Hashtbl.create 97 in
    let nodes = ref 0 in
    let deepest = ref 0 in
    let budget = match max_nodes with Some b -> b | None -> max_int in
    (* [path.(0 .. depth - 1)]: the operations linearized so far *)
    let path = Array.make total 0 in
    let rec dfs remaining sid depth =
      if depth > !deepest then deepest := depth;
      match remaining with
      | [] -> Some (Array.copy path)
      | _ ->
          incr nodes;
          if !nodes > budget then
            raise
              (Node_budget_exceeded
                 { nodes = !nodes; prefix = !deepest; total });
          let k = (remaining, sid) in
          if Hashtbl.mem dead k then None
          else begin
            let minimal i =
              List.for_all
                (fun j -> j = i || not (precedes arr.(j) arr.(i)))
                remaining
            in
            let try_first i =
              if not (minimal i) then None
              else
                match step sid i with
                | None -> None
                | Some sid' ->
                    path.(depth) <- i;
                    dfs
                      (List.filter (fun j -> j <> i) remaining)
                      sid' (depth + 1)
            in
            match List.find_map try_first remaining with
            | Some _ as witness -> witness
            | None ->
                Hashtbl.add dead k ();
                None
          end
    in
    dfs (List.init total Fun.id) (intern T.initial) 0

  let check ?max_nodes (ops : op list) : op list option =
    let arr = Array.of_list ops in
    Option.map
      (fun p -> Array.fold_right (fun i acc -> arr.(i) :: acc) p [])
      (positions ?max_nodes arr)

  let is_linearizable ops = Option.is_some (check ops)
end
