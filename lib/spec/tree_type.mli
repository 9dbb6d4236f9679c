(** Simple rooted tree (paper Table 4); node [0] is the permanent root.

    [Insert (x, p)] attaches fresh [x] under [p], or MOVES an existing
    [x] (with subtree) under [p] — last-write-wins, which makes Insert
    last-sensitive; no-ops on [x = 0], absent [p], or cycles.
    [Delete x] removes the subtree at [x] and records [x] in a deletion
    register readable via [Last_removed] (pure subtree removal is
    commutative, so the register is the minimal extra observable state
    under which the paper's claim that Delete is last-sensitive holds —
    see DESIGN.md).  [Depth x] is the pure accessor of Table 4. *)

type state = {
  parents : (int * int) list;  (** (child, parent), sorted by child *)
  last_removed : int option;
}

type invocation = Insert of int * int | Delete of int | Depth of int | Last_removed
type response = Ack | Depth_is of int option | Removed_was of int option

include
  Data_type.S
    with type state := state
     and type invocation := invocation
     and type response := response
