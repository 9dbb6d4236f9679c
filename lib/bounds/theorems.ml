(** The paper's bound formulas, as functions of the model parameters.

    Lower bounds (Theorems 2-5) hold for {e any} linearizable
    implementation in the partially synchronous model; upper bounds
    (Lemma 4) are achieved by Algorithm 1 with tradeoff parameter
    [X] in [[0, d - eps]].  Prior bounds cited in Tables 1-4 are also
    provided for the comparison columns. *)

(** [m = min{eps, u, d/3}], the slack term of Theorems 4 and 5. *)
let slack_m (model : Sim.Model.t) =
  Rat.min_list [ model.eps; model.u; Rat.div_int model.d 3 ]

(** Theorem 2: every pure accessor takes at least [u/4]
    (requires [n >= 3]). *)
let thm2_pure_accessor (model : Sim.Model.t) = Rat.div_int model.u 4

(** Theorem 3: every last-sensitive operation takes at least
    [(1 - 1/k) u] where [k <= n] distinct instances witness
    last-sensitivity. *)
let thm3_last_sensitive ?k (model : Sim.Model.t) =
  let k = Option.value k ~default:model.n in
  if k < 2 || k > model.n then
    invalid_arg "thm3_last_sensitive: need 2 <= k <= n";
  Rat.mul (Rat.make (k - 1) k) model.u

(** Theorem 4: every pair-free operation takes at least
    [d + min{eps, u, d/3}] (requires [n >= 2]). *)
let thm4_pair_free (model : Sim.Model.t) = Rat.add model.d (slack_m model)

(** Theorem 5: for a transposable operation OP and pure accessor AOP
    satisfying the discriminator hypotheses, [|OP| + |AOP|] is at least
    [d + min{eps, u, d/3}] (requires [n >= 3]). *)
let thm5_sum (model : Sim.Model.t) = Rat.add model.d (slack_m model)

(** {1 Upper bounds: Lemma 4, achieved by Algorithm 1} *)

let check_x model x =
  Result.iter_error
    (fun msg -> invalid_arg ("Theorems: " ^ msg))
    (Core.Wtlw.check_x model x)

(** What the paper claims for pure accessors: [d - X].  Our
    reproduction found the claim unsound as stated — the accessor wait
    must be [d - X + eps] for Algorithm 1's replicas to stay in sync
    (see [Core.Wtlw.paper_timing] and EXPERIMENTS.md) — so this value
    is kept only for the comparison columns. *)
let ub_pure_accessor_paper (model : Sim.Model.t) ~x =
  check_x model x;
  Rat.sub model.d x

(** Pure accessor time achieved by the repaired Algorithm 1:
    [d - X + eps]. *)
let ub_pure_accessor (model : Sim.Model.t) ~x =
  check_x model x;
  Rat.add (Rat.sub model.d x) model.eps

let ub_pure_mutator (model : Sim.Model.t) ~x =
  check_x model x;
  Rat.add x model.eps

let ub_mixed (model : Sim.Model.t) = Rat.add model.d model.eps

let ub_for_class (model : Sim.Model.t) ~x = function
  | Spec.Op_kind.Pure_accessor -> ub_pure_accessor model ~x
  | Spec.Op_kind.Pure_mutator -> ub_pure_mutator model ~x
  | Spec.Op_kind.Mixed -> ub_mixed model

(** Folklore baselines (§1): centralized takes up to [2d] per
    operation; clock-based total-order broadcast takes [d + eps]. *)
let ub_centralized (model : Sim.Model.t) = Rat.mul_int model.d 2

let ub_tob (model : Sim.Model.t) = Rat.add model.d model.eps

(** {1 Prior bounds quoted in Tables 1-4} *)

(** Attiya-Welch: reads of a register (and by the paper's Theorem 2
    generalization, all pure accessors) take at least [u/4]. *)
let prior_read (model : Sim.Model.t) = Rat.div_int model.u 4

(** Attiya-Welch / Kosa: write, push, enqueue, insert, delete take at
    least [u/2]. *)
let prior_half_u (model : Sim.Model.t) = Rat.div_int model.u 2

(** Kosa: RMW, dequeue, pop (mixed operations) take at least [d]. *)
let prior_d (model : Sim.Model.t) = model.d

(** Lipton-Sandberg / Kosa: interfering pairs (write+read, enqueue+peek,
    insert+depth, ...) sum to at least [d]. *)
let prior_sum_d (model : Sim.Model.t) = model.d

(** {1 Tightness facts (paper §5, §6.1)} *)

(** With optimally synchronized clocks, [eps = (1 - 1/n) u], so the
    Theorem 3 lower bound [(1 - 1/n) u] matches Algorithm 1's pure
    mutator time [X + eps] at [X = 0]: the bound is tight. *)
let mutator_bound_tight (model : Sim.Model.t) =
  Rat.equal model.eps (Sim.Model.optimal_eps model)

(** If [eps <= min{u, d/3}], Theorem 4's lower bound [d + eps] matches
    Algorithm 1's mixed-operation time [d + eps]: tight. *)
let pair_free_bound_tight (model : Sim.Model.t) =
  Rat.le model.eps (Rat.min model.u (Rat.div_int model.d 3))
