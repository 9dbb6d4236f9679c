(** Shift-stress harness: the proofs' adversarial scenarios applied to
    the real algorithm.

    Algorithm 1 respects the lower bounds, so the constructions that
    kill any too-fast algorithm must produce no contradiction on it:
    after shifting a run by the proof's vector, whenever the result is
    admissible it must still be linearizable. *)

module Make (T : Spec.Data_type.S) : sig
  type trace =
    (Core.Wtlw.Make(T).msg, T.invocation, T.response) Sim.Trace.t

  type outcome = {
    base : trace;  (** the run of Algorithm 1 *)
    shifted : trace;  (** [base] shifted by the proof's vector *)
    base_linearizable : bool;
    shifted_admissible : bool;
    shifted_linearizable : bool;
    operations : int;
  }

  val ok : outcome -> bool
  (** Base run linearizable, and the shifted run linearizable whenever
      it is admissible. *)

  val run_and_shift :
    model:Sim.Model.t ->
    x_param:Rat.t ->
    offsets:Rat.t array ->
    matrix:Rat.t array array ->
    shift:Rat.t array ->
    T.invocation Core.Workload.entry list ->
    outcome
  (** Run Algorithm 1 at [x_param] under the pair-wise uniform delays
      [matrix] with the given invocation schedule, then shift the run by
      [shift].  Every scenario below is one call; a zero [shift] just
      runs the schedule. *)

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
