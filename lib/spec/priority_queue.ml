(** Max-priority queue over integers (multiset semantics).

    [insert v] adds an element — a pure mutator that {e commutes}
    (the final multiset does not depend on insertion order), so unlike
    queue/stack/tree mutators it is not last-sensitive and only the
    generic [u/2]-style bounds apply to it; [extract_max] removes and
    returns the maximum (mixed, pair-free); [find_max] observes it
    (pure accessor).

    The paper's §6.2 notes that relaxing determinism ("extract an
    arbitrary element") might allow faster operations; [extract_max]
    is the deterministic comparison point. *)

type state = int list (* multiset, kept descending *)
[@@deriving show { with_path = false }, eq]

type invocation = Insert of int | Extract_max | Find_max
[@@deriving show { with_path = false }, eq]

type response = Ack | Max of int option
[@@deriving show { with_path = false }, eq]

let name = "priority-queue"
let initial = []

let rec insert_desc v = function
  | [] -> [ v ]
  | x :: rest -> if v >= x then v :: x :: rest else x :: insert_desc v rest

let apply state = function
  | Insert v -> (insert_desc v state, Ack)
  | Extract_max -> (
      match state with
      | [] -> ([], Max None)
      | top :: rest -> (rest, Max (Some top)))
  | Find_max -> (
      match state with
      | [] -> (state, Max None)
      | top :: _ -> (state, Max (Some top)))

let respond s inv = snd (apply s inv)

let op_of = function
  | Insert _ -> "insert"
  | Extract_max -> "extract-max"
  | Find_max -> "find-max"

let operations =
  [
    ("insert", Op_kind.Pure_mutator);
    ("extract-max", Op_kind.Mixed);
    ("find-max", Op_kind.Pure_accessor);
  ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "insert" -> [ Insert 1; Insert 2; Insert 3; Insert 4 ]
  | "extract-max" -> [ Extract_max ]
  | "find-max" -> [ Find_max ]
  | op -> invalid_arg ("priority-queue: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 4 with
  | 0 | 1 -> Insert (Random.State.int rng 10)
  | 2 -> Extract_max
  | _ -> Find_max

let gen_tagged rng ~tag =
  match Random.State.int rng 4 with
  | 0 | 1 -> Insert (tag + 1)
  | 2 -> Extract_max
  | _ -> Find_max

let monitor =
  Some
    {
      Adt_view.kind = Adt_view.Priority_queue;
      obs =
        (fun inv resp ->
          match (inv, resp) with
          | Insert v, Ack -> Adt_view.Put v
          | Extract_max, Max v -> Adt_view.Take v
          | Find_max, Max v -> Adt_view.Peek v
          | Insert _, Max _ | (Extract_max | Find_max), Ack -> Adt_view.Opaque);
      put = (fun v -> Insert v);
      take = Some Extract_max;
      peek = Some Find_max;
      has = None;
      drop = None;
    }
