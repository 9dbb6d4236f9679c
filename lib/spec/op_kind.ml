(** The coarse classification used by the paper's algorithm (§5.1):
    every operation of a data type is a pure accessor ([AOP]), a pure
    mutator ([MOP]), or both an accessor and a mutator ([OOP]). *)

type t =
  | Pure_accessor  (** observes the state without changing it *)
  | Pure_mutator  (** changes the state without revealing it *)
  | Mixed  (** both accesses and mutates (the paper's [OOP]) *)
[@@deriving eq]

let is_accessor = function Pure_accessor | Mixed -> true | Pure_mutator -> false
let is_mutator = function Pure_mutator | Mixed -> true | Pure_accessor -> false

let to_string = function
  | Pure_accessor -> "pure accessor"
  | Pure_mutator -> "pure mutator"
  | Mixed -> "accessor+mutator"
