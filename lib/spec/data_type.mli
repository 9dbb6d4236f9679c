(** Sequential specifications of arbitrary data types (paper §2.1).

    The paper specifies a type [T] by its set of legal sequences
    [L(T)], required to be prefix-closed, complete and deterministic.
    We represent such a specification by a deterministic state machine:
    [apply state invocation] returns the successor state and the unique
    response.  This guarantees all three constraints by construction —
    prefix closure (legality is replay), completeness ([apply] is
    total), determinism ([apply] is a function).

    Specifications must use {e canonical} states: two states are
    [equal_state] iff no operation sequence distinguishes them.  The
    classification checkers and the linearizability checker rely on
    this to decide the paper's sequence-equivalence relation by
    comparing reached states. *)

module type S = sig
  type state
  type invocation
  type response

  val name : string
  val initial : state

  val apply : state -> invocation -> state * response
  (** Total and deterministic. *)

  val op_of : invocation -> string
  (** Which operation (read, write, enqueue, ...) this invocation is an
      instance of. *)

  val operations : (string * Op_kind.t) list
  (** All operations with their declared classification; drives
      Algorithm 1's AOP/MOP/OOP dispatch and is validated against the
      discovered classification in the tests. *)

  val equal_state : state -> state -> bool
  val equal_invocation : invocation -> invocation -> bool
  val equal_response : response -> response -> bool
  val show_state : state -> string
  val pp_state : Format.formatter -> state -> unit
  val pp_invocation : Format.formatter -> invocation -> unit
  val pp_response : Format.formatter -> response -> unit

  val sample_invocations : string -> invocation list
  (** Representative invocations per operation — witness candidates for
      the classification search.  Must be non-empty for every declared
      operation and include enough distinct arguments to exhibit the
      type's algebraic properties. *)

  val classification_contexts : invocation list list
  (** Handcrafted context sequences that {!Classify.Make}'s
      [default_universe] adds to its search space, for witnesses its
      short and random contexts may miss (the tree's deep shapes).
      Every caller that classifies the type (the CLI, the static
      auditor, the tests) gets them from here.  [[]] for most types;
      {!Product} and {!Keyed} lift their components'. *)

  val gen_invocation : Random.State.t -> invocation
  (** Random invocation, for workloads and property tests. *)

  val gen_tagged : Random.State.t -> tag:int -> invocation
  (** Random invocation with the same operation mix as
      {!gen_invocation}, except that any value the invocation
      introduces into the object (a write, an enqueue, a push, ...) is
      derived injectively from [tag].  A stream generated with
      distinct tags is an {e unambiguous} history — no value enters
      the object twice — which is the precondition for the log-linear
      per-type monitors; ambiguous histories fall back to the
      exponential Wing-Gong search.  Million-operation workloads
      ({!Core.Workload.Gen}) pass the stream position as the tag.
      Types whose monitors do not exist or whose semantics need
      colliding values (e.g. the tree fixture) may ignore [tag]. *)

  val monitor : (invocation, response) Adt_view.viewer option
  (** The per-type linearizability monitor this specification opts
      into, if its shape matches one of the {!Adt_view.kind}s.  [None]
      sends every history of the type to the Wing-Gong checker.  The
      declared kind is statically verified against the classification
      witnesses by the [monitor_audit] analysis pass. *)
end

(** An operation instance [OP(arg, ret)]: invocation plus response
    (paper §2.1). *)
type ('inv, 'resp) instance = { inv : 'inv; resp : 'resp }

(** Derived sequence semantics. *)
module Semantics (T : S) : sig
  type nonrec instance = (T.invocation, T.response) instance

  val equal_instance : instance -> instance -> bool

  val legal : instance list -> bool
  (** Membership in the paper's [L(T)]. *)

  val perform_seq : T.invocation list -> instance list * T.state
  (** Execute a whole invocation sequence from the initial state — how
      a context sequence rho is materialized. *)

  val equivalent : instance list -> instance list -> bool
  (** The paper's [rho1 == rho2] (identical legal continuations),
      decided via canonical states; two illegal sequences are
      equivalent. *)

  val kind_of : T.invocation -> Op_kind.t
  (** Declared kind of the invocation's operation.
      @raise Invalid_argument on an undeclared operation. *)
end
