(** Monitor views: the bridge between a sequential specification and
    the per-type linearizability monitors in [lib/monitor].

    The decrease-and-conquer monitors (Lee-Mathur style) are not
    generic over arbitrary [Data_type.S] implementations: each is an
    O(n log n) algorithm for one abstract shape — register, set, FIFO
    queue, LIFO stack, or priority queue.  A data type opts into a
    monitor by declaring a {e viewer}: which shape it implements, how
    to translate a completed operation (invocation + response) into
    the shape's canonical observation vocabulary, and how to build
    canonical invocations back (used by the unambiguous history
    generator and by the static [monitor_audit] pass).

    Everything here is plain data — no monitor logic — so [lib/spec]
    stays free of any dependency on the analysis layers while the
    monitors stay free of per-type pattern matches. *)

(* Which specialized monitor a type claims.  The names mirror the
   per-type algorithms of "Efficient Decrease-and-Conquer
   Linearizability Monitoring" (PAPERS.md). *)
type kind = Register | Set | Queue | Stack | Priority_queue

let kind_to_string = function
  | Register -> "register"
  | Set -> "set"
  | Queue -> "queue"
  | Stack -> "stack"
  | Priority_queue -> "priority-queue"

(* Canonical observation of one completed operation.  [Put v] covers
   write/enqueue/push/add/insert; [Take] the destructive observers
   (dequeue/pop/extract); [Peek] the pure observers of the
   distinguished element (read/peek/find-max); [Has] membership
   queries; [Drop] set removal (always acknowledged, present or not).
   [Opaque] marks an operation outside the shape's vocabulary — a
   history containing one falls back to the Wing-Gong checker. *)
type obs =
  | Put of int
  | Take of int option
  | Peek of int option
  | Has of int * bool
  | Drop of int
  | Opaque

let obs_to_string = function
  | Put v -> Printf.sprintf "put %d" v
  | Take None -> "take -> empty"
  | Take (Some v) -> Printf.sprintf "take -> %d" v
  | Peek None -> "peek -> empty"
  | Peek (Some v) -> Printf.sprintf "peek -> %d" v
  | Has (v, b) -> Printf.sprintf "has %d -> %b" v b
  | Drop v -> Printf.sprintf "drop %d" v
  | Opaque -> "opaque"

(* The viewer a data type bundles.  [obs] translates completed
   operations; the constructors below it are the inverse direction,
   used to synthesize canonical unambiguous workloads ([put] is
   mandatory, the rest present only where the shape has the
   operation). *)
type ('inv, 'resp) viewer = {
  kind : kind;
  obs : 'inv -> 'resp -> obs;
  put : int -> 'inv;
  take : 'inv option;
  peek : 'inv option;
  has : (int -> 'inv) option;
  drop : (int -> 'inv) option;
}
