(** Ablation knobs: the vocabulary for demonstrating that every wait
    in Algorithm 1 is load-bearing.

    Each knob removes or shortens one of the algorithm's five waiting
    periods (see {!Wtlw.timing}).  A knob is part of a scenario's
    algorithm; [Scenario.Exec] lowers it through {!timing_of_knob}, and
    [Scenario.Ablation] runs adversarial scenarios — skewed clocks plus
    delay schedules chosen to realize the race the wait protects
    against — reporting whether the linearizability checker catches a
    violation or the replicas diverge.

    The paper proves the default timing correct (Theorem 6); these
    ablations are the executable converse: with the wait removed, a
    concrete admissible run violates linearizability, so the wait is
    not slack that a cleverer implementation could shave off wholesale.
    (Theorems 2-5 bound how much of it is inherent.) *)

type knob =
  | Paper  (** the repaired Algorithm 1 (the library default), the control *)
  | Paper_verbatim
      (** the paper's pseudocode exactly as published, accessor wait
          [d - X]: an accessor drain can execute a queued mutator ahead
          of a smaller-timestamped one still in flight — the
          reproduction finding; see {!Wtlw.paper_timing} *)
  | No_execute_wait
      (** execute mutators as soon as they are queued ([u + eps -> 0]):
          breaks the all-replicas-same-order guarantee under skew *)
  | Short_execute_wait of Rat.t  (** a partial version of the above *)
  | No_add_wait
      (** queue own mutators immediately ([d - u -> 0]): the invoker
          runs ahead of everyone else's view of the timestamp order *)
  | Eager_accessor of Rat.t
      (** respond accessors after the given wait instead of [d - X]:
          an accessor can miss a mutator that completed before it was
          invoked *)
  | No_accessor_backdate
      (** timestamp accessors with [local_time] instead of
          [local_time - X] (an ablation of pseudocode line 2) *)

let knob_name = function
  | Paper -> "repaired (default)"
  | Paper_verbatim -> "paper-verbatim"
  | No_execute_wait -> "no-execute-wait"
  | Short_execute_wait w -> Printf.sprintf "execute-wait=%s" (Rat.to_string w)
  | No_add_wait -> "no-add-wait"
  | Eager_accessor w -> Printf.sprintf "accessor-wait=%s" (Rat.to_string w)
  | No_accessor_backdate -> "no-accessor-backdate"

let timing_of_knob (model : Sim.Model.t) ~x knob =
  let base = Wtlw.default_timing model ~x in
  match knob with
  | Paper -> base
  | Paper_verbatim -> Wtlw.paper_timing model ~x
  | No_execute_wait -> { base with execute_wait = Rat.zero }
  | Short_execute_wait w -> { base with execute_wait = w }
  | No_add_wait -> { base with add_wait = Rat.zero }
  | Eager_accessor w -> { base with accessor_wait = w }
  | No_accessor_backdate -> { base with accessor_backdate = Rat.zero }
