(** Integer set, implementing the paper's §6.2 future-work discussion.

    [add]/[remove] are pure mutators that {e commute} — in contrast with
    queue/stack/tree mutators they are not last-sensitive, which the
    classification tests use as a negative control.  [contains] is a
    pure accessor.  [extract_min] removes and returns the minimum
    element: it is the deterministic stand-in for the paper's "extract
    an arbitrary element" (our framework requires determinism — §2.1 —
    and the paper's proofs rely on it). *)

(* A balanced tree, so [add], [remove] and [contains] are O(log size)
   and replaying an n-operation history is O(n log n).  States render
   as the sorted element list. *)
module Elements = Set.Make (Int)

type state = Elements.t
type sorted = int list [@@deriving show { with_path = false }]

let elements = Elements.elements
let pp_state ppf s = pp_sorted ppf (elements s)
let show_state s = show_sorted (elements s)
let equal_state = Elements.equal

type invocation = Add of int | Remove of int | Contains of int | Extract_min
[@@deriving show { with_path = false }, eq]

type response = Ack | Mem of bool | Min of int option
[@@deriving show { with_path = false }, eq]

let name = "int-set"
let initial = Elements.empty

let apply state = function
  | Add v -> (Elements.add v state, Ack)
  | Remove v -> (Elements.remove v state, Ack)
  | Contains v -> (state, Mem (Elements.mem v state))
  | Extract_min -> (
      match Elements.min_elt_opt state with
      | None -> (state, Min None)
      | Some min -> (Elements.remove min state, Min (Some min)))

let op_of = function
  | Add _ -> "add"
  | Remove _ -> "remove"
  | Contains _ -> "contains"
  | Extract_min -> "extract-min"

let operations =
  [
    ("add", Op_kind.Pure_mutator);
    ("remove", Op_kind.Pure_mutator);
    ("contains", Op_kind.Pure_accessor);
    ("extract-min", Op_kind.Mixed);
  ]

let equal_invocation = equal_invocation
let equal_response = equal_response

let sample_invocations = function
  | "add" -> [ Add 1; Add 2; Add 3; Add 4 ]
  | "remove" -> [ Remove 1; Remove 2; Remove 3 ]
  | "contains" -> [ Contains 1; Contains 2; Contains 3 ]
  | "extract-min" -> [ Extract_min ]
  | op -> invalid_arg ("int-set: unknown operation " ^ op)

let classification_contexts = []

let gen_invocation rng =
  match Random.State.int rng 4 with
  | 0 -> Add (Random.State.int rng 10)
  | 1 -> Remove (Random.State.int rng 10)
  | 2 -> Contains (Random.State.int rng 10)
  | _ -> Extract_min

(* No [Extract_min] (outside the monitor's vocabulary) and at most one
   add and one remove per value; membership tests range over all tags
   issued so far, so they do hit live values. *)
let gen_tagged rng ~tag =
  match Random.State.int rng 4 with
  | 0 | 1 -> Add (tag + 1)
  | 2 -> Remove (tag + 1)
  | _ -> Contains (1 + Random.State.int rng (tag + 1))

(* [Extract_min] is outside the set monitor's vocabulary (it couples
   the values); a history containing one falls back to Wing-Gong. *)
let monitor =
  Some
    {
      Adt_view.kind = Adt_view.Set;
      obs =
        (fun inv resp ->
          match (inv, resp) with
          | Add v, Ack -> Adt_view.Put v
          | Remove v, Ack -> Adt_view.Drop v
          | Contains v, Mem b -> Adt_view.Has (v, b)
          | Extract_min, _ | _, (Mem _ | Min _ | Ack) -> Adt_view.Opaque);
      put = (fun v -> Add v);
      take = None;
      peek = None;
      has = Some (fun v -> Contains v);
      drop = Some (fun v -> Remove v);
    }
