(** Monitor views: how a data type opts into the per-type O(n log n)
    linearizability monitors of [lib/monitor].

    A {!viewer} names the abstract shape the type implements
    ({!kind}), translates completed operations into the shape's
    canonical {!obs} vocabulary, and provides inverse constructors for
    synthesizing canonical unambiguous workloads.  Plain data only:
    [lib/spec] carries no monitor logic, and the monitors carry no
    per-type pattern matches. *)

type kind = Register | Set | Queue | Stack | Priority_queue

val kind_to_string : kind -> string

(** Canonical observation of one completed operation.  [Opaque] marks
    an operation outside the shape's vocabulary — a history containing
    one falls back to the Wing-Gong checker. *)
type obs =
  | Put of int  (** write / enqueue / push / add / insert *)
  | Take of int option  (** dequeue / pop / extract; [None] = empty *)
  | Peek of int option  (** read / peek / find-max; [None] = empty *)
  | Has of int * bool  (** membership query *)
  | Drop of int  (** set removal (acknowledged whether present or not) *)
  | Opaque

val obs_to_string : obs -> string

type ('inv, 'resp) viewer = {
  kind : kind;
  obs : 'inv -> 'resp -> obs;
  put : int -> 'inv;  (** canonical insertion of a value *)
  take : 'inv option;  (** the destructive observer, if the shape has one *)
  peek : 'inv option;  (** the pure observer, if the shape has one *)
  has : (int -> 'inv) option;  (** membership query (sets) *)
  drop : (int -> 'inv) option;  (** removal (sets) *)
}
