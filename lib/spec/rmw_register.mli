(** Read-Modify-Write register (paper Table 1).

    [rmw f] atomically returns the current value and replaces it with
    [f] applied to it; the modification functions are a small indexed
    family so invocations stay first-order data.  [rmw] is the paper's
    flagship pair-free operation (Theorem 4). *)

type rmw_fn =
  | Fetch_and_add of int  (** new value = old + k *)
  | Fetch_and_set of int  (** new value = k (a swap) *)
  | Compare_and_swap of int * int
      (** set to the second value if the old equals the first; always
          returns the old value *)

type state = int
type invocation = Read | Write of int | Rmw of rmw_fn
type response = Value of int | Ack

include
  Data_type.S
    with type state := state
     and type invocation := invocation
     and type response := response
