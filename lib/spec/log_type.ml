(** Append-only log (journal).

    [append v] (pure mutator) is the cleanest possible last-sensitive
    operation: the log records the exact append order, any two distinct
    permutations of distinct appends are observably different, and
    there are as many distinct instances as values — so Theorem 3
    applies with [k = n] for every [n].  [last] (pure accessor)
    returns the most recent entry, [length] (pure accessor) the number
    of entries, and [trim] (mixed) removes and returns the oldest
    entry, giving the log a pair-free operation as well. *)

type state = int list (* newest first *)
[@@deriving show { with_path = false }, eq]

type invocation = Append of int | Last | Length | Trim
[@@deriving show { with_path = false }, eq]

type response = Ack | Entry of int option | Count of int
[@@deriving show { with_path = false }, eq]

let name = "log"
let initial = []

let apply state = function
  | Append v -> (v :: state, Ack)
  | Last -> (
      match state with
      | [] -> (state, Entry None)
      | newest :: _ -> (state, Entry (Some newest)))
  | Length -> (state, Count (List.length state))
  | Trim -> (
      match List.rev state with
      | [] -> ([], Entry None)
      | oldest :: rest_rev -> (List.rev rest_rev, Entry (Some oldest)))

let op_of = function
  | Append _ -> "append"
  | Last -> "last"
  | Length -> "length"
  | Trim -> "trim"

let operations =
  [
    ("append", Op_kind.Pure_mutator);
    ("last", Op_kind.Pure_accessor);
    ("length", Op_kind.Pure_accessor);
    ("trim", Op_kind.Mixed);
  ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "append" -> [ Append 1; Append 2; Append 3; Append 4 ]
  | "last" -> [ Last ]
  | "length" -> [ Length ]
  | "trim" -> [ Trim ]
  | op -> invalid_arg ("log: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 5 with
  | 0 | 1 -> Append (Random.State.int rng 10)
  | 2 -> Last
  | 3 -> Length
  | _ -> Trim

let gen_tagged rng ~tag =
  match Random.State.int rng 5 with
  | 0 | 1 -> Append (tag + 1)
  | 2 -> Last
  | 3 -> Length
  | _ -> Trim

(* No specialized monitor for this shape: histories go to Wing-Gong. *)
let monitor = None
