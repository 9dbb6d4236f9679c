(** Ablation legs: machine-checked evidence that every wait in
    Algorithm 1 is load-bearing.

    Mirrors {!Robustness}, but for the algorithm's waits instead of the
    model's assumptions: each leg is one adversarial queue run under a
    [Core.Ablation.knob], built by {!scenario} as plain data and run
    through [Scenario.run], so a leg that catches a violation is a
    self-contained repro file ([Scenario.save]) that the shrinker can
    minimize.  The paper proves the repaired default correct
    (Theorem 6); the other knobs should be caught. *)

type outcome = {
  knob : Core.Ablation.knob;
  runs : int;
  linearizable_runs : int;
  converged_runs : int;
}

val violations : outcome -> int
val sound : outcome -> bool
(** All runs linearizable with converged replicas. *)

val pp_outcome : Format.formatter -> outcome -> unit

val scenario :
  model:Sim.Model.t -> x:Rat.t -> seed:int -> Core.Ablation.knob -> Types.t
(** One adversarial leg on the queue: clock offsets [eps/2] at p1 and
    [-eps/2] at p2; a delay [Matrix] at [d] except edges 1->0 and 2->3
    at the minimum delay; an [Explicit] schedule opening with an
    accessor racing a fresh pure mutator, then mutators from p1 and p2
    and reads from p0 and p3, its operations drawn from [seed];
    Algorithm 1 at [x] under the knob, judged by Wing-Gong.  The
    scenario expects [Certify], so a caught violation fails it.
    Requires [model.n >= 4]. *)

val evaluate :
  model:Sim.Model.t ->
  x:Rat.t ->
  seeds:int list ->
  Core.Ablation.knob ->
  outcome
(** One {!scenario} per seed, counted. *)

val default_knobs : Sim.Model.t -> x:Rat.t -> Core.Ablation.knob list
(** The repaired control first, then the paper's verbatim timing and
    one variant per wait. *)

val report :
  model:Sim.Model.t -> x:Rat.t -> seeds:int list -> (outcome list, string) result
(** {!evaluate} over {!default_knobs}; a model with fewer than 4
    processes, or an [x] outside [[0, d - eps]] (every [x] when
    [eps > d]), is refused by name. *)

val finding : Core.Ablation.knob -> bool * bool
(** [(linearizable, replicas_converged)] of
    [Builtin.ablation_counterexample] under the knob: [(false, false)]
    for [Paper_verbatim], [(true, true)] for the repaired [Paper]
    (EXPERIMENTS.md §Finding). *)
