(** LIFO stack of integers (paper Table 3).

    [push v] (pure mutator, last-sensitive), [pop] (mixed, pair-free),
    [peek] (pure accessor).  Unlike the queue, [push]+[peek] does {e
    not} satisfy Theorem 5's discriminator hypotheses: in a
    push/peek-only run a peek depends only on the {e last} push, so no
    accessor instance can distinguish [rho.push_a] from
    [rho.push_b.push_a] — the test suite checks this asymmetry. *)

type state = int list (* top first *) [@@deriving show { with_path = false }, eq]

type invocation = Push of int | Pop | Peek
[@@deriving show { with_path = false }, eq]

type response = Ack | Got of int option
[@@deriving show { with_path = false }, eq]

let name = "stack"
let initial = []

let apply state = function
  | Push v -> (v :: state, Ack)
  | Pop -> (
      match state with
      | [] -> ([], Got None)
      | top :: rest -> (rest, Got (Some top)))
  | Peek -> (
      match state with
      | [] -> (state, Got None)
      | top :: _ -> (state, Got (Some top)))

let respond s inv = snd (apply s inv)

let op_of = function Push _ -> "push" | Pop -> "pop" | Peek -> "peek"

let operations =
  [
    ("push", Op_kind.Pure_mutator);
    ("pop", Op_kind.Mixed);
    ("peek", Op_kind.Pure_accessor);
  ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "push" -> [ Push 1; Push 2; Push 3; Push 4 ]
  | "pop" -> [ Pop ]
  | "peek" -> [ Peek ]
  | op -> invalid_arg ("stack: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 4 with
  | 0 | 1 -> Push (Random.State.int rng 10)
  | 2 -> Pop
  | _ -> Peek

let gen_tagged rng ~tag =
  match Random.State.int rng 4 with
  | 0 | 1 -> Push (tag + 1)
  | 2 -> Pop
  | _ -> Peek

let monitor =
  Some
    {
      Adt_view.kind = Adt_view.Stack;
      obs =
        (fun inv resp ->
          match (inv, resp) with
          | Push v, Ack -> Adt_view.Put v
          | Pop, Got v -> Adt_view.Take v
          | Peek, Got v -> Adt_view.Peek v
          | Push _, Got _ | (Pop | Peek), Ack -> Adt_view.Opaque);
      put = (fun v -> Push v);
      take = Some Pop;
      peek = Some Peek;
      has = None;
      drop = None;
    }
