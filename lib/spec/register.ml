(** Read/write register over integers (paper §2.1's running example).

    [read] returns the value written by the latest preceding [write],
    or the initial value [0].  [write] is the textbook pure mutator —
    in fact an {e overwriter} — and [read] the textbook pure
    accessor. *)

type state = int [@@deriving show { with_path = false }, eq]

type invocation = Read | Write of int
[@@deriving show { with_path = false }, eq]

type response = Value of int | Ack [@@deriving show { with_path = false }, eq]

let name = "register"
let initial = 0

let apply state = function
  | Read -> (state, Value state)
  | Write v -> (v, Ack)

let op_of = function Read -> "read" | Write _ -> "write"

let operations =
  [ ("read", Op_kind.Pure_accessor); ("write", Op_kind.Pure_mutator) ]

let equal_state = equal_state
let equal_invocation = equal_invocation
let equal_response = equal_response
let show_state = show_state

let sample_invocations = function
  | "read" -> [ Read ]
  | "write" -> [ Write 1; Write 2; Write 3; Write 4 ]
  | op -> invalid_arg ("register: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  if Random.State.bool rng then Read else Write (Random.State.int rng 10)

(* [tag + 1]: value 0 is the initial register content, and a history
   that both reads and writes 0 is ambiguous to the monitor. *)
let gen_tagged rng ~tag =
  if Random.State.bool rng then Read else Write (tag + 1)

let monitor =
  Some
    {
      Adt_view.kind = Adt_view.Register;
      obs =
        (fun inv resp ->
          match (inv, resp) with
          | Write v, Ack -> Adt_view.Put v
          | Read, Value v -> Adt_view.Peek (Some v)
          | Write _, Value _ | Read, Ack -> Adt_view.Opaque);
      put = (fun v -> Write v);
      take = None;
      peek = Some Read;
      has = None;
      drop = None;
    }
