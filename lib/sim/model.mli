(** Model parameters of the partially synchronous system (paper §2.2).

    [n] processes communicate over reliable point-to-point channels whose
    delays lie in the closed interval [[d - u, d]]; local clocks have no
    drift and are synchronized to within [eps] ([\epsilon] in the paper). *)

type t = private {
  n : int;        (** number of processes, at least 2 *)
  d : Rat.t;      (** maximum message delay, positive *)
  u : Rat.t;      (** delay uncertainty, [0 <= u <= d] *)
  eps : Rat.t;    (** clock synchronization bound, non-negative *)
}

val make : n:int -> d:Rat.t -> u:Rat.t -> eps:Rat.t -> t
(** @raise Invalid_argument if any constraint above is violated. *)

val make_optimal_eps : n:int -> d:Rat.t -> u:Rat.t -> t
(** Same as {!make} with [eps = (1 - 1/n) * u], the optimal achievable
    clock synchronization error for drift-free clocks (paper §5, citing
    Lundelius & Lynch). *)

val min_delay : t -> Rat.t
(** [d - u]. *)

val optimal_eps : t -> Rat.t
(** [(1 - 1/n) * u] for this model's [n] and [u]. *)

val delay_valid : t -> Rat.t -> bool
(** Is a single message delay admissible, i.e. within [[d - u, d]]? *)

val max_skew : Rat.t array -> Rat.t
(** The largest pairwise clock skew of an offset vector, [max - min]
    ([0] for an empty one).  Allocates nothing on integer offsets. *)

val skew_valid : t -> Rat.t array -> bool
(** Are clock offsets pairwise within [eps], i.e. is {!max_skew} at
    most [eps]?  The array must have length [n]. *)

val pp : Format.formatter -> t -> unit
