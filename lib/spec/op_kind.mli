(** The coarse classification used by the paper's algorithm (§5.1):
    every operation is a pure accessor ([AOP]), a pure mutator
    ([MOP]), or both ([OOP], "mixed").  The declared kind drives
    Algorithm 1's dispatch; the {!Classify} search verifies
    declarations against the formal definitions. *)

type t =
  | Pure_accessor  (** observes the state without changing it *)
  | Pure_mutator  (** changes the state without revealing it *)
  | Mixed  (** both accesses and mutates (the paper's [OOP]) *)

val equal : t -> t -> bool
val is_accessor : t -> bool
val is_mutator : t -> bool
val to_string : t -> string
