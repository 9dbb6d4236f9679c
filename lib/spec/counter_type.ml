(** Shared counter.

    [add k] is a commutative pure mutator (another negative control for
    last-sensitivity: distinct additions commute, so no permutation's
    last element is observable).  [read] is a pure accessor and
    [fetch_and_increment] a pair-free mixed operation (two instances
    returning the same value cannot be sequentialized). *)

type state = int [@@deriving show { with_path = false }, eq]

type invocation = Add of int | Read | Fetch_and_increment
[@@deriving show { with_path = false }, eq]

type response = Ack | Value of int [@@deriving show { with_path = false }, eq]

let name = "counter"
let initial = 0

let apply state = function
  | Add k -> (state + k, Ack)
  | Read -> (state, Value state)
  | Fetch_and_increment -> (state + 1, Value state)

let op_of = function
  | Add _ -> "add"
  | Read -> "read"
  | Fetch_and_increment -> "fetch-and-increment"

let operations =
  [
    ("add", Op_kind.Pure_mutator);
    ("read", Op_kind.Pure_accessor);
    ("fetch-and-increment", Op_kind.Mixed);
  ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "add" -> [ Add 1; Add 2; Add 3; Add 5 ]
  | "read" -> [ Read ]
  | "fetch-and-increment" -> [ Fetch_and_increment ]
  | op -> invalid_arg ("counter: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 3 with
  | 0 -> Add (1 + Random.State.int rng 5)
  | 1 -> Read
  | _ -> Fetch_and_increment

(* Counter increments commute, so ambiguity is not a concern and there
   is no monitor to satisfy; the tag is irrelevant. *)
let gen_tagged rng ~tag:_ = gen_invocation rng

(* No specialized monitor for this shape: histories go to Wing-Gong. *)
let monitor = None
