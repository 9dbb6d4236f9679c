(** Simple rooted tree (paper Table 4).

    Nodes are positive integers; node [0] is the permanent root.  The
    paper asserts (Table 4) that Insert and Delete are last-sensitive
    (Theorem 3 applies with [k = n]) and that Insert+Depth and
    Delete+Depth satisfy Theorem 5's discriminator hypotheses, but does
    not pin down tree semantics.  We choose the minimal semantics under
    which all of those classifications are {e true and machine-checkable}:

    - [Insert (x, p)] attaches fresh node [x] under [p]; if [x] already
      exists it {e moves} [x] (with its subtree) under [p]
      (last-write-wins, which is what makes Insert last-sensitive).
      No-op when [x = 0], [p] is absent, or the move would create a
      cycle.  Always acknowledges, so it is a pure mutator.
    - [Delete x] removes the subtree rooted at [x] and records [x] in a
      {e deletion register} readable via [Last_removed].  Pure subtree
      removal is commutative — no removal-only semantics can be
      last-sensitive — so the register is the minimal addition that
      realizes the paper's claimed bound for Delete; see DESIGN.md.
      Always acknowledges: pure mutator.
    - [Depth x] returns the depth of [x] (root has depth 0), or [None]
      if absent.  Pure accessor.
    - [Last_removed] returns the deletion register.  Pure accessor; it
      also makes the register observable, keeping canonical-state
      equality faithful to the paper's sequence-equivalence relation. *)

type state = {
  parents : (int * int) list;  (** (child, parent), sorted by child *)
  last_removed : int option;
}
[@@deriving show { with_path = false }, eq]

type invocation = Insert of int * int | Delete of int | Depth of int | Last_removed
[@@deriving show { with_path = false }, eq]

type response = Ack | Depth_is of int option | Removed_was of int option
[@@deriving show { with_path = false }, eq]

let name = "rooted-tree"
let initial = { parents = []; last_removed = None }
let root = 0
let mem state x = x = root || List.mem_assoc x state.parents

let parent state x = List.assoc_opt x state.parents

(* Depth of [x]: length of its parent chain down to the root. *)
let depth state x =
  if x = root then Some 0
  else
    let rec walk node acc =
      if node = root then Some acc
      else
        match parent state node with
        | None -> None
        | Some p -> walk p (acc + 1)
    in
    if mem state x then walk x 0 else None

(* Is [anc] an ancestor of (or equal to) [node]? *)
let rec in_subtree state ~anc node =
  if node = anc then true
  else
    match parent state node with
    | None -> false
    | Some p -> in_subtree state ~anc p

let set_parent state x p =
  let without = List.remove_assoc x state.parents in
  let parents =
    List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) ((x, p) :: without)
  in
  { state with parents }

let remove_subtree state x =
  let parents =
    List.filter
      (fun (child, _) -> not (in_subtree state ~anc:x child))
      state.parents
  in
  { state with parents }

let apply state = function
  | Insert (x, p) ->
      if x = root || not (mem state p) || in_subtree state ~anc:x p then
        (state, Ack)
      else (set_parent state x p, Ack)
  | Delete x ->
      if x = root || not (mem state x) then (state, Ack)
      else ({ (remove_subtree state x) with last_removed = Some x }, Ack)
  | Depth x -> (state, Depth_is (depth state x))
  | Last_removed -> (state, Removed_was state.last_removed)

let op_of = function
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Depth _ -> "depth"
  | Last_removed -> "last-removed"

let operations =
  [
    ("insert", Op_kind.Pure_mutator);
    ("delete", Op_kind.Pure_mutator);
    ("depth", Op_kind.Pure_accessor);
    ("last-removed", Op_kind.Pure_accessor);
  ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "insert" ->
      [
        Insert (1, 0);
        Insert (2, 0);
        Insert (2, 1);
        Insert (3, 1);
        Insert (3, 2);
        Insert (5, 1);
        Insert (5, 2);
        Insert (5, 3);
      ]
  | "delete" -> [ Delete 1; Delete 2; Delete 3; Delete 5 ]
  | "depth" -> [ Depth 1; Depth 2; Depth 3; Depth 5 ]
  | "last-removed" -> [ Last_removed ]
  | op -> invalid_arg ("rooted-tree: unknown operation " ^ op)

(* The deep contexts the classification search needs as witnesses and
   its random pool may miss: a chain (parents at distinct depths, for
   insert's last-sensitivity), a star of independent siblings (for
   delete's), and a mixed shape. *)
let classification_contexts =
  [
    [ Insert (1, 0); Insert (2, 1); Insert (3, 2) ];
    [ Insert (1, 0); Insert (2, 0); Insert (3, 0); Insert (5, 0) ];
    [ Insert (1, 0); Insert (2, 0); Insert (3, 1); Insert (5, 2) ];
  ]

let gen_invocation rng =
  match Random.State.int rng 5 with
  | 0 | 1 ->
      Insert (1 + Random.State.int rng 6, Random.State.int rng 4)
  | 2 -> Delete (1 + Random.State.int rng 6)
  | 3 -> Depth (Random.State.int rng 7)
  | _ -> Last_removed

(* The tree's semantics live in key collisions (insert-over-insert,
   delete of a present key), so unique tags would empty the type of
   interest; there is no tree monitor to satisfy. *)
let gen_tagged rng ~tag:_ = gen_invocation rng

(* No specialized monitor for this shape: histories go to Wing-Gong. *)
let monitor = None
