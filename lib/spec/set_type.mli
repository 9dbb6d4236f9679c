(** Integer set (paper §6.2's future-work discussion).

    [add]/[remove] are commuting pure mutators — NOT last-sensitive,
    the negative control for Theorem 3's hypothesis.  [contains] is a
    pure accessor and [extract_min] the deterministic stand-in for the
    paper's "extract an arbitrary element" (pair-free). *)

type state
(** A set of ints; [show_state] renders it as its sorted element list,
    e.g. [[1; 3]]. *)

type invocation = Add of int | Remove of int | Contains of int | Extract_min
type response = Ack | Mem of bool | Min of int option

include
  Data_type.S
    with type state := state
     and type invocation := invocation
     and type response := response

val elements : state -> int list
(** The members, in increasing order. *)
