(** Read-Modify-Write register (paper Table 1).

    Besides [read] and [write], the type supports [rmw f]: atomically
    return the current value and replace it with [f] applied to it.
    The modification functions form a small indexed family so that
    invocations stay first-order data (the specification must be
    deterministic and serializable in messages).

    [rmw] is the paper's flagship {e pair-free} operation: two instances
    of [rmw (Fetch_and_add 1)] that both return the same old value can
    never be linearized in sequence. *)

type rmw_fn =
  | Fetch_and_add of int  (** new value = old + k *)
  | Fetch_and_set of int  (** new value = k (a swap) *)
  | Compare_and_swap of int * int
      (** [Compare_and_swap (expect, new_)]: set to [new_] if the old
          value equals [expect]; always returns the old value. *)
[@@deriving show { with_path = false }, eq]

type state = int [@@deriving show { with_path = false }, eq]

type invocation = Read | Write of int | Rmw of rmw_fn
[@@deriving show { with_path = false }, eq]

type response = Value of int | Ack [@@deriving show { with_path = false }, eq]

let name = "rmw-register"
let initial = 0

let eval_fn fn old =
  match fn with
  | Fetch_and_add k -> old + k
  | Fetch_and_set k -> k
  | Compare_and_swap (expect, new_) -> if old = expect then new_ else old

let apply state = function
  | Read -> (state, Value state)
  | Write v -> (v, Ack)
  | Rmw fn -> (eval_fn fn state, Value state)

let respond s inv = snd (apply s inv)

let op_of = function Read -> "read" | Write _ -> "write" | Rmw _ -> "rmw"

let operations =
  [
    ("read", Op_kind.Pure_accessor);
    ("write", Op_kind.Pure_mutator);
    ("rmw", Op_kind.Mixed);
  ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "read" -> [ Read ]
  | "write" -> [ Write 1; Write 2; Write 3; Write 4 ]
  | "rmw" ->
      [
        Rmw (Fetch_and_add 1);
        Rmw (Fetch_and_add 2);
        Rmw (Fetch_and_set 7);
        Rmw (Compare_and_swap (0, 5));
      ]
  | op -> invalid_arg ("rmw-register: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 4 with
  | 0 -> Read
  | 1 -> Write (Random.State.int rng 10)
  | 2 -> Rmw (Fetch_and_add (1 + Random.State.int rng 3))
  | _ -> Rmw (Fetch_and_set (Random.State.int rng 10))

let gen_tagged rng ~tag =
  match Random.State.int rng 4 with
  | 0 -> Read
  | 1 -> Write (tag + 1)
  | 2 -> Rmw (Fetch_and_add (1 + Random.State.int rng 3))
  | _ -> Rmw (Fetch_and_set (tag + 1))

(* No specialized monitor for this shape: histories go to Wing-Gong. *)
let monitor = None
