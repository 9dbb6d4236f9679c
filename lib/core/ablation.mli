(** Ablation knobs: each one removes or shortens one of Algorithm 1's
    waiting periods.

    A knob is part of a scenario's algorithm: [Scenario.Exec] lowers it
    through {!timing_of_knob}, and [Scenario.Ablation] runs adversarial
    scenarios against each variant, reporting whether the
    linearizability checker catches a violation or the replicas
    diverge.  [Scenario.Builtin.ablation_counterexample] is the
    deterministic run behind the reproduction finding: the paper's
    verbatim accessor wait produces a non-linearizable admissible run,
    the repaired default survives the identical schedule. *)

type knob =
  | Paper  (** the repaired Algorithm 1 (library default), the control *)
  | Paper_verbatim  (** the pseudocode as published (accessor wait d - X) *)
  | No_execute_wait  (** execute mutators as soon as queued *)
  | Short_execute_wait of Rat.t
  | No_add_wait  (** queue own mutators immediately *)
  | Eager_accessor of Rat.t  (** respond accessors after this short wait *)
  | No_accessor_backdate  (** timestamp accessors with [local] not [local - X] *)

val knob_name : knob -> string
val timing_of_knob : Sim.Model.t -> x:Rat.t -> knob -> Wtlw.timing
