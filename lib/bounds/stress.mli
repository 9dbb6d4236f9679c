(** Shift-stress harness: the proofs' adversarial scenarios applied to
    the real algorithm.

    Algorithm 1 respects the lower bounds, so the constructions that
    kill any too-fast algorithm must produce no contradiction on it:
    after shifting a run by the proof's vector, whenever the result is
    admissible it must still be linearizable.  Both runs go through
    [Core.Runtime], and each is certified by its one certify path. *)

module Make (T : Spec.Data_type.S) : sig
  type report = Core.Runtime.Make(T).report

  type outcome = {
    base : report;  (** R1: the construction's run of Algorithm 1 *)
    shifted : report option;
        (** R2 = shift(R1, x), run under the shifted matrix, offsets and
            schedule, its operations in shift(R1, x)'s frame; [None]
            when its clock skew exceeds eps or a shifted delay is
            negative, so that no run of the model has it *)
  }

  val ok : outcome -> bool
  (** R1 linearizable, and R2 linearizable whenever it is admissible. *)

  val theorem2 :
    model:Sim.Model.t ->
    x_param:Rat.t ->
    rho:T.invocation list ->
    aop:T.invocation ->
    op:T.invocation ->
    unit ->
    outcome
  (** Alternating accessor instances at p0/p1 bracketing a mutator,
      under uniform delays [d - u/2], shifted by Theorem 2's vector. *)

  val theorem3 :
    model:Sim.Model.t ->
    x_param:Rat.t ->
    k:int ->
    z:int ->
    rho:T.invocation list ->
    instances:T.invocation list ->
    unit ->
    outcome
  (** [k] concurrent mutator instances, one per process, under the
      skewed-ring matrix; shifted by the proof's vector for [z].
      @raise Invalid_argument unless [instances] has length [k]. *)

  val theorem4 :
    model:Sim.Model.t ->
    x_param:Rat.t ->
    rho:T.invocation list ->
    op0:T.invocation ->
    op1:T.invocation ->
    unit ->
    outcome
  (** Two concurrent pair-free instances under the D1 matrix, shifted
      by the step-3 vector. *)

  val theorem5 :
    model:Sim.Model.t ->
    x_param:Rat.t ->
    rho:T.invocation list ->
    op0:T.invocation ->
    op1:T.invocation ->
    aop0:T.invocation ->
    aop1:T.invocation ->
    aop2:T.invocation ->
    unit ->
    outcome
  (** Concurrent mutators then three accessors under Figure 8's matrix,
      shifted by [(0, m, 0, ...)]. *)
end
