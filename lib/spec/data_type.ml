(** Sequential specifications of arbitrary data types (paper §2.1).

    The paper specifies a type [T] by its set of legal sequences [L(T)],
    required to be prefix-closed, complete and deterministic.  We
    represent such a specification by a deterministic state machine:
    [apply state invocation] returns the new state and the unique
    response.  This representation guarantees all three constraints by
    construction:

    - {e prefix closure}: legality is defined by replay, so any prefix of
      a replayable sequence is replayable;
    - {e completeness}: [apply] is total, so every invocation has a
      response after every legal sequence;
    - {e determinism}: [apply] is a function.

    Specifications must use {e canonical} states: two states must be
    [equal_state] if and only if no operation sequence can distinguish
    them.  The classification checkers in {!module:Classify} and the
    linearizability checker rely on this to decide the paper's
    equivalence relation [rho1 == rho2] by comparing reached states. *)

module type S = sig
  type state
  type invocation
  type response

  val name : string
  (** Human-readable data type name, e.g. ["fifo-queue"]. *)

  val initial : state

  val apply : state -> invocation -> state * response
  (** Total and deterministic: the unique legal response and successor
      state. *)

  val op_of : invocation -> string
  (** Which operation (in the paper's sense: read, write, enqueue, ...)
      this invocation is an instance of. *)

  val operations : (string * Op_kind.t) list
  (** All operations of the type with their declared classification.
      The declared kinds drive Algorithm 1's AOP/MOP/OOP dispatch; the
      test suite checks them against the kinds {e discovered} by the
      classification search. *)

  val equal_state : state -> state -> bool
  val equal_invocation : invocation -> invocation -> bool
  val equal_response : response -> response -> bool
  val show_state : state -> string
  val pp_state : Format.formatter -> state -> unit
  val pp_invocation : Format.formatter -> invocation -> unit
  val pp_response : Format.formatter -> response -> unit

  val sample_invocations : string -> invocation list
  (** Representative invocations of the given operation, used as
      witness candidates by the classification search.  Should be small
      (a handful) but include enough distinct arguments to exhibit the
      type's algebraic properties. *)

  val classification_contexts : invocation list list
  (** Handcrafted context sequences added to the classification
      search's universe, for witnesses its random pool may miss. *)

  val gen_invocation : Random.State.t -> invocation
  (** Random invocation, for workloads and property tests. *)

  val gen_tagged : Random.State.t -> tag:int -> invocation
  (** Like {!gen_invocation}, but any value the invocation introduces
      into the object is derived injectively from [tag], so a stream
      drawn with distinct tags forms an unambiguous history that the
      per-type monitors can certify without Wing-Gong fallback. *)

  val monitor : (invocation, response) Adt_view.viewer option
  (** The per-type linearizability monitor this specification opts
      into, if its shape matches one of the {!Adt_view.kind}s.  [None]
      sends every history of the type to the Wing-Gong checker.  The
      declared kind is statically verified against the classification
      witnesses by the [monitor_audit] analysis pass. *)
end

(** An operation instance [OP(arg, ret)]: an invocation bundled with its
    response (paper §2.1). *)
type ('inv, 'resp) instance = { inv : 'inv; resp : 'resp }

(** Derived sequence semantics for a specification. *)
module Semantics (T : S) = struct
  type nonrec instance = (T.invocation, T.response) instance

  let equal_instance a b =
    T.equal_invocation a.inv b.inv && T.equal_response a.resp b.resp

  (* Replay [instances] from [state]; [None] when some instance's
     recorded response disagrees with the specification, i.e. the
     sequence is illegal from that state. *)
  let replay state instances =
    let step acc { inv; resp } =
      match acc with
      | None -> None
      | Some s ->
          let s', r = T.apply s inv in
          if T.equal_response r resp then Some s' else None
    in
    List.fold_left step (Some state) instances

  let state_after instances = replay T.initial instances
  let legal instances = Option.is_some (state_after instances)

  (* The unique legal instance of [inv] from [state], with successor. *)
  let perform state inv =
    let state', resp = T.apply state inv in
    ({ inv; resp }, state')

  (* Execute a whole invocation sequence from the initial state,
     producing the legal instance sequence (this is how a context
     sequence rho is materialized). *)
  let perform_seq invocations =
    let step (rev_instances, state) inv =
      let instance, state' = perform state inv in
      (instance :: rev_instances, state')
    in
    let rev_instances, state =
      List.fold_left step ([], T.initial) invocations
    in
    (List.rev rev_instances, state)

  (* The paper's equivalence rho1 == rho2 (same legal continuations),
     decided via canonical states.  Two illegal sequences are equivalent
     (no continuation of either is legal). *)
  let equivalent rho1 rho2 =
    match (state_after rho1, state_after rho2) with
    | None, None -> true
    | Some s1, Some s2 -> T.equal_state s1 s2
    | None, Some _ | Some _, None -> false

  (* Runs once per invocation and per completed operation, so the
     lookup walks the declared operations and builds no option. *)
  let rec kind_in op = function
    | (name, kind) :: rest ->
        if String.equal name op then kind else kind_in op rest
    | [] ->
        invalid_arg (Printf.sprintf "%s: unknown operation %s" T.name op)

  let kind_of inv = kind_in (T.op_of inv) T.operations
end
