(** FIFO queue of integers (paper Table 2).

    [enqueue v] appends (pure mutator, last-sensitive: a long enough
    string of dequeues reveals which enqueue came last); [dequeue]
    removes and returns the head, [None] on empty (mixed, pair-free);
    [peek] returns the head without removing it (pure accessor).
    [enqueue]/[peek] form the paper's example pair for Theorem 5's
    discriminator hypotheses. *)

(* Batched queue (front + reversed back) so [Enqueue] costs O(1)
   instead of an O(n) append — million-operation monitor workloads
   replay against this specification.  The canonical state remains the
   head-first list: [equal_state] and [show_state] go through
   [to_list], so differently-batched equal queues are
   indistinguishable, as {!Data_type.S} requires. *)
type state = { front : int list; back : int list }

type invocation = Enqueue of int | Dequeue | Peek
[@@deriving show { with_path = false }, eq]

type response = Ack | Got of int option
[@@deriving show { with_path = false }, eq]

let name = "fifo-queue"
let initial = { front = []; back = [] }
let to_list s = s.front @ List.rev s.back

(* invariant: [front] empty only when the queue is *)
let norm = function
  | { front = []; back } -> { front = List.rev back; back = [] }
  | s -> s

let apply state = function
  | Enqueue v -> (norm { state with back = v :: state.back }, Ack)
  | Dequeue -> (
      match state.front with
      | [] -> (state, Got None)
      | head :: tail -> (norm { state with front = tail }, Got (Some head)))
  | Peek -> (
      match state.front with
      | [] -> (state, Got None)
      | head :: _ -> (state, Got (Some head)))

(* [front] holds the head whenever the queue is non-empty, so an answer
   reads it without normalizing a successor. *)
let respond state = function
  | Enqueue _ -> Ack
  | Dequeue | Peek -> (
      match state.front with [] -> Got None | head :: _ -> Got (Some head))

let op_of = function
  | Enqueue _ -> "enqueue"
  | Dequeue -> "dequeue"
  | Peek -> "peek"

let operations =
  [
    ("enqueue", Op_kind.Pure_mutator);
    ("dequeue", Op_kind.Mixed);
    ("peek", Op_kind.Pure_accessor);
  ]

let equal_state a b = to_list a = to_list b
let equal_invocation = equal_invocation
let equal_response = equal_response

let pp_state ppf s =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (List.map string_of_int (to_list s)))

let show_state s = Format.asprintf "%a" pp_state s

let sample_invocations = function
  | "enqueue" -> [ Enqueue 1; Enqueue 2; Enqueue 3; Enqueue 4 ]
  | "dequeue" -> [ Dequeue ]
  | "peek" -> [ Peek ]
  | op -> invalid_arg ("fifo-queue: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 4 with
  | 0 | 1 -> Enqueue (Random.State.int rng 10)
  | 2 -> Dequeue
  | _ -> Peek

let gen_tagged rng ~tag =
  match Random.State.int rng 4 with
  | 0 | 1 -> Enqueue (tag + 1)
  | 2 -> Dequeue
  | _ -> Peek

let monitor =
  Some
    {
      Adt_view.kind = Adt_view.Queue;
      obs =
        (fun inv resp ->
          match (inv, resp) with
          | Enqueue v, Ack -> Adt_view.Put v
          | Dequeue, Got v -> Adt_view.Take v
          | Peek, Got v -> Adt_view.Peek v
          | Enqueue _, Got _ | (Dequeue | Peek), Ack -> Adt_view.Opaque);
      put = (fun v -> Enqueue v);
      take = Some Dequeue;
      peek = Some Peek;
      has = None;
      drop = None;
    }
