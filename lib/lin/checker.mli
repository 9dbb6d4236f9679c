(** Linearizability checker (paper §2.3).

    Given the completed operations of a run — with invocation and
    response real times — decide whether some permutation is (i) legal
    for the sequential specification and (ii) consistent with the
    real-time order of non-overlapping operations.  Wing-Gong style
    DFS with (remaining-set, state) memoization; intended for the
    low-concurrency histories the simulator produces (at most one
    pending operation per process).

    States are interned (the canonical [show_state] rendering is
    produced once per distinct state, and memo keys hash a small
    integer id instead of the rendered string) and (state, operation)
    transitions are cached, so [apply] runs once per distinct
    transition over the whole search. *)

exception
  Node_budget_exceeded of {
    nodes : int;  (** DFS nodes visited when the budget tripped *)
    prefix : int;  (** longest linearized prefix reached (operations) *)
    total : int;  (** operations in the history being checked *)
  }
(** Raised by {!Make.check} when [max_nodes] is set and the DFS visits
    more nodes than the budget.  The payload names how far the search
    got — nodes explored and the deepest linearized prefix — so sweep
    and runtime diagnostics can report progress, not just the abort.
    Declared outside {!Make} so the one constructor is shared by every
    instantiation — generic drivers (e.g. the sweep engine) can catch
    it without knowing the data type. *)

val pp_budget_exceeded : Format.formatter -> int * int * int -> unit
(** Render [(nodes, prefix, total)] as the canonical diagnostic line. *)

module Make (T : Spec.Data_type.S) : sig
  type op = (T.invocation, T.response) Sim.Trace.operation

  val pp_op : Format.formatter -> op -> unit

  val positions : ?max_nodes:int -> op array -> int array option
  (** A witness linearization as positions in the array, first to
      last, or [None].  Histories must be complete (every operation
      has both times).
      @raise Node_budget_exceeded when [max_nodes] is set and the
      search exceeds it — a pathological history aborts with a named
      diagnostic instead of hanging. *)

  val check : ?max_nodes:int -> op list -> op list option
  (** {!positions} over the list, with the witness as operations. *)

  val is_linearizable : op list -> bool
end
