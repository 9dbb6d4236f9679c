(** Executable classification of operations by the paper's algebraic
    properties (§2.1, §3.2, §4.2, §4.3).

    Existential definitions (mutator, accessor, last-sensitive,
    pair-free, Theorem 5's discriminator hypotheses) become witness
    searches over a finite {e universe} of context sequences — a found
    witness is sound.  Each is one search ([find_*_witness]); its
    boolean form ([is_*], {!thm5_hypotheses}) is [Option.is_some] of
    it.  Universal definitions (transposable, overwriter) become
    bounded refutation searches — [false] is sound, [true] is bounded
    verification. *)

type op_report = {
  op : string;
  declared : Op_kind.t;
  discovered_mutator : bool;
  discovered_accessor : bool;
  transposable : bool;
  last_sensitive2 : bool;  (** witness found with [k = 2] *)
  last_sensitive3 : bool;  (** witness found with [k = 3] *)
  pair_free : bool;
  overwriter : bool;
}

val pp_op_report : Format.formatter -> op_report -> unit

module Make (T : Data_type.S) : sig
  module Sem : module type of Data_type.Semantics (T)

  (** The search space: candidate context sequences rho (as invocation
      sequences; contexts are always legal in the state-based
      framework). *)
  type universe = { contexts : T.invocation list list }

  val default_universe : unit -> universe
  (** Empty context, all short sequences over a trimmed sample pool, 60
      seed-fixed random sequences of length up to 5, plus the type's own
      [T.classification_contexts] for witnesses the random pool may
      miss. *)

  val is_mutator : universe -> string -> bool
  (** Some instance detectably changes the state after some context. *)

  val is_accessor : universe -> string -> bool
  (** Some interposed instance changes some instance's response. *)

  val discovered_kind : universe -> string -> Op_kind.t option
  (** [None] if the operation is neither (it accomplishes nothing). *)

  val is_transposable : universe -> string -> bool
  (** Bounded-universal: no context and pair of distinct instances
      witnesses an order dependence of legality. *)

  val is_last_sensitive : universe -> k:int -> string -> bool
  (** Witness: [k] distinct instances, all permutations legal, and
      permutations with different last elements reach different
      states. *)

  val is_pair_free : universe -> string -> bool
  (** Witness: two instances each legal after rho, illegal in either
      sequential order. *)

  val is_overwriter : universe -> string -> bool
  (** Bounded-universal (and a mutator): whenever the same instance is
      legal before and after an interposed instance, the successor
      states agree. *)

  val interferes : universe -> op1:string -> op2:string -> bool
  (** §6.1's interference relation (generalized Lipton-Sandberg): some
      instance of [op1] changes the response of some instance of
      [op2]; then [|OP1| + |OP2| >= d] in any implementation. *)

  val thm5_hypotheses : universe -> op:string -> aop:string -> bool
  (** OP transposable, AOP a pure accessor, and some context with
      instances op0, op1 admitting all three discriminators required by
      Theorem 5. *)

  val find_mutator_witness :
    universe -> string -> (T.invocation list * T.invocation) option
  (** The context and state-changing instance behind a positive
      {!is_mutator} answer — the concrete counterexample reported by
      the static auditor when a declared pure accessor mutates. *)

  val find_accessor_witness :
    universe ->
    string ->
    (T.invocation list * T.invocation * T.invocation) option
  (** Context, accessor instance and interposed instance behind a
      positive {!is_accessor} answer (the interposed instance changes
      the accessor's response). *)

  val find_last_sensitive_witness :
    universe -> k:int -> string -> (T.invocation list * T.invocation list) option
  (** The context sequence and [k] distinct instances behind a positive
      {!is_last_sensitive} answer — ready to feed to a Theorem 3 stress
      scenario. *)

  val find_pair_free_witness :
    universe -> string -> (T.invocation list * T.invocation * T.invocation) option
  (** Context and the two instances behind {!is_pair_free}. *)

  val find_thm5_witness :
    universe ->
    op:string ->
    aop:string ->
    (T.invocation list
    * T.invocation
    * T.invocation
    * T.invocation
    * T.invocation
    * T.invocation)
    option
  (** Context, the two OP instances, and the three discriminator
      arguments behind {!thm5_hypotheses}. *)

  val report : universe -> op_report list
  (** One report per declared operation. *)
end
