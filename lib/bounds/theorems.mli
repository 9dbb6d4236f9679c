(** The paper's bound formulas, as functions of the model parameters.

    Lower bounds (Theorems 2-5) hold for {e any} linearizable
    implementation in the partially synchronous model; upper bounds
    (Lemma 4) are achieved by Algorithm 1 with tradeoff parameter [X]
    in [[0, d - eps]]. *)

val slack_m : Sim.Model.t -> Rat.t
(** [m = min{eps, u, d/3}], the slack term of Theorems 4 and 5. *)

val thm2_pure_accessor : Sim.Model.t -> Rat.t
(** Theorem 2: every pure accessor takes at least [u/4] ([n >= 3]). *)

val thm3_last_sensitive : ?k:int -> Sim.Model.t -> Rat.t
(** Theorem 3: every last-sensitive operation takes at least
    [(1 - 1/k)u], [k] defaulting to [n].
    @raise Invalid_argument unless [2 <= k <= n]. *)

val thm4_pair_free : Sim.Model.t -> Rat.t
(** Theorem 4: every pair-free operation takes at least
    [d + min{eps, u, d/3}] ([n >= 2]). *)

val thm5_sum : Sim.Model.t -> Rat.t
(** Theorem 5: [|OP| + |AOP|] is at least [d + min{eps, u, d/3}] for a
    transposable OP and pure accessor AOP satisfying the discriminator
    hypotheses ([n >= 3]). *)

(** {1 Upper bounds (Lemma 4, Algorithm 1)} *)

val ub_pure_accessor_paper : Sim.Model.t -> x:Rat.t -> Rat.t
(** The paper's claimed [d - X] — unsound as published (see
    EXPERIMENTS.md §Finding); kept for comparison columns.
    @raise Invalid_argument if [x] is outside [[0, d - eps]]. *)

val ub_pure_accessor : Sim.Model.t -> x:Rat.t -> Rat.t
(** Achieved by the repaired algorithm: [d - X + eps]. *)

val ub_pure_mutator : Sim.Model.t -> x:Rat.t -> Rat.t
(** [X + eps]. *)

val ub_mixed : Sim.Model.t -> Rat.t
(** [d + eps]. *)

val ub_for_class : Sim.Model.t -> x:Rat.t -> Spec.Op_kind.t -> Rat.t
(** The bound of an operation class: {!ub_pure_accessor},
    {!ub_pure_mutator} or {!ub_mixed}. *)

val ub_centralized : Sim.Model.t -> Rat.t
(** Folklore baseline: [2d] per operation. *)

val ub_tob : Sim.Model.t -> Rat.t
(** Folklore baseline: [d + eps] per operation. *)

(** {1 Prior bounds quoted in Tables 1-4} *)

val prior_read : Sim.Model.t -> Rat.t
(** Attiya-Welch: [u/4] for reads. *)

val prior_half_u : Sim.Model.t -> Rat.t
(** Attiya-Welch / Kosa: [u/2] for write, push, enqueue, insert, delete. *)

val prior_d : Sim.Model.t -> Rat.t
(** Kosa: [d] for RMW, dequeue, pop. *)

val prior_sum_d : Sim.Model.t -> Rat.t
(** Lipton-Sandberg / Kosa: [d] for interfering operation pairs. *)

(** {1 Tightness facts (paper §5, §6.1)} *)

val mutator_bound_tight : Sim.Model.t -> bool
(** With [eps = (1 - 1/n)u], Theorem 3's bound matches [X + eps] at
    [X = 0]. *)

val pair_free_bound_tight : Sim.Model.t -> bool
(** With [eps <= min{u, d/3}], Theorem 4's bound matches [d + eps]. *)
