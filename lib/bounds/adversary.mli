(** The adversarial constructions from the proofs of Theorems 2-5, as
    executable artifacts: delay matrices, shift vectors, chop points,
    and the proofs' quantitative claims machine-checked with exact
    arithmetic.  The bench prints the matrices, regenerating Figures 2
    and 4-10. *)

type claim = { label : string; holds : bool }

val claim : string -> bool -> claim
val all_hold : claim list -> bool
val failing : claim list -> claim list
val pp_claim : Format.formatter -> claim -> unit

(** Theorem 2 (pure accessors, [u/4]): base run with uniform delays
    [d - u/2], shifted by [(±u/4, ∓u/4, 0, ...)]. *)
module Thm2 : sig
  val base_matrix : Sim.Model.t -> Rat.t array array
  val shift_vector : Sim.Model.t -> case:[ `Even | `Odd ] -> Rat.t array

  val claims : Sim.Model.t -> claim list
  (** The proof's displayed post-shift delays, validity, and skew.
      @raise Invalid_argument if [n < 3]. *)
end

(** Theorem 3 (last-sensitive mutators, [(1-1/k)u]): skewed-ring delay
    matrix [d - ((i-j) mod k)/k · u]; shift vector parameterized by the
    process [z] whose instance was linearized last. *)
module Thm3 : sig
  val base_matrix : Sim.Model.t -> k:int -> Rat.t array array
  val shift_vector : Sim.Model.t -> k:int -> z:int -> Rat.t array

  val separation_gap : Sim.Model.t -> k:int -> z:int -> Rat.t
  (** [x_{z+1} - x_z], which the proof shows equals [(1-1/k)u] — the
      real-time separation that forces the contradiction. *)

  val claims : Sim.Model.t -> k:int -> claim list
  (** Claims 2 and 3 of the proof, for every [z]. *)
end

(** Theorem 4 (pair-free operations, [d + m]): the D1 matrix of
    Figure 2 and the shift/chop/repair pipeline of Figures 4-7. *)
module Thm4 : sig
  val m : Sim.Model.t -> Rat.t
  (** [min{eps, u, d/3}]. *)

  val d1_matrix : Sim.Model.t -> Rat.t array array
  val step3_shift : Sim.Model.t -> Rat.t array
  (** [(0, -m, 0, ...)]: p1 earlier. *)

  val matrices : Sim.Model.t -> (string * Rat.t array array) list
  (** Figures 2, 4, 5, 6, 7 in order. *)

  val claims : Sim.Model.t -> claim list
end

(** Theorem 5 (sum bound, [d + m]): the D matrix of Figure 8 and the
    shifted matrix of Figure 10. *)
module Thm5 : sig
  val m : Sim.Model.t -> Rat.t
  val d_matrix : Sim.Model.t -> Rat.t array array
  val shift : Sim.Model.t -> Rat.t array
  (** [(0, m, 0, ...)]: p1 later. *)

  val matrices : Sim.Model.t -> (string * Rat.t array array) list
  val claims : Sim.Model.t -> claim list
  (** @raise Invalid_argument if [n < 3]. *)
end

(** Probing candidate delay matrices — e.g. the matrix of a shrunk
    failing scenario — against the paper's bound tables.  A candidate
    {e witnesses tightness} when it is admissible and some operation
    class's worst observed latency reaches that class's lower bound:
    the shrinking search then produced an adversary as strong as the
    proofs' hand-built shifted executions. *)
module Probe : sig
  type assessment = {
    kind : Spec.Op_kind.t;
    observed : Rat.t;  (** worst latency realized under the candidate *)
    lower : Rat.t option;
        (** the class's Table 1 lower bound ([None] when the theorem's
            preconditions don't hold at this model point) *)
    upper : Rat.t;  (** Algorithm 1's repaired upper bound *)
    meets_lower : bool;  (** [observed >= lower] *)
    within_upper : bool;  (** [observed <= upper] *)
  }

  type report = {
    matrix_admissible : bool;
    assessments : assessment list;
    claims : claim list;
  }

  val assess :
    model:Sim.Model.t ->
    x:Rat.t ->
    matrix:Rat.t array array ->
    observed:(Spec.Op_kind.t * Rat.t) list ->
    report
  (** [observed] pairs each operation class with the worst latency an
      execution under [matrix] realized (a scenario executor's
      [by_kind]). *)

  val witnesses_tightness : report -> bool
  val pp : Format.formatter -> report -> unit
end
