(** Algorithm 1 of the paper — the Wang–Talmage–Lee–Welch linearizable
    implementation of an arbitrary data type (§5.1).

    Operations are dispatched by their declared {!Spec.Op_kind.t}:
    pure accessors answer from the local replica after a fixed wait
    with a backdated timestamp; pure mutators acknowledge after
    [X + eps] and are applied everywhere in timestamp order; mixed
    operations respond when they execute at their invoking process.
    [X] in [[0, d - eps]] trades accessor speed against mutator speed.

    {b Reproduction finding}: the paper's published accessor wait
    [d - X] is an [eps] too short and admits non-linearizable runs; the
    default timing here uses the repaired wait [d - X + eps].  See
    {!paper_timing}, [Core.Ablation] and EXPERIMENTS.md. *)

(** The five waiting periods the algorithm is built from.  Primarily
    consumed via {!default_timing}; custom values exist for the
    ablation harness. *)
type timing = {
  accessor_wait : Rat.t;  (** respond a pure accessor after this *)
  accessor_backdate : Rat.t;  (** subtract from accessor timestamps *)
  mutator_ack_wait : Rat.t;  (** acknowledge a pure mutator after this *)
  add_wait : Rat.t;  (** queue own mutators after (simulated min delay) *)
  execute_wait : Rat.t;  (** execute after queueing *)
}

val paper_timing : Sim.Model.t -> x:Rat.t -> timing
(** The pseudocode verbatim: accessor wait [d - X] — {b unsound}; kept
    for the ablation/counterexample machinery. *)

val check_x : Sim.Model.t -> Rat.t -> (unit, string) result
(** [Ok ()] when [x] lies in [[0, d - eps]] (allocating nothing);
    otherwise an error that begins ["X = "] and names that range (and,
    when [eps > d], says that no X lies in it).  The one X-range test:
    every refusal of an X calls it. *)

val default_timing : Sim.Model.t -> x:Rat.t -> timing
(** The repaired timing: accessor wait [d - X + eps], everything else
    as published. *)

module Make (T : Spec.Data_type.S) : sig
  type msg
  (** Inter-replica messages (broadcast mutator announcements). *)

  type tag
  (** Timer tags (respond / add / execute).  The same type as {!msg}
      inside the implementation: a broadcast announcement is also the
      tag of each of its copies' execute timers. *)

  type states
  (** The algorithm state of a cluster: the replicas with their shared
      replay log ({!Replica}), and each process's [To_Execute] queue. *)

  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  (** A running cluster: drive it through {!Sim.Engine.schedule_invoke}
      and {!Sim.Engine.run} on [engine]. *)
  type t = { engine : engine; states : states; timing : timing }

  val fresh_states : n:int -> states
  (** [n] processes, each replica in the initial state. *)

  val protocol :
    timing:timing ->
    states ->
    (msg, tag, T.invocation, T.response) Sim.Engine.handlers
  (** The algorithm's handler triple over the given replica states,
      decoupled from engine construction so it can also run wrapped by
      the reliable channel ([Core.Reliable]) over a lossy network. *)

  val linearization :
    timing:timing ->
    offsets:Rat.t array ->
    per:int ->
    (T.invocation, T.response) Sim.Trace.operation array ->
    int array
  (** The order this algorithm linearizes a run in (Construction 1 of
      the paper), as positions in [ops]: by timestamp — the local clock
      at invocation, [inv_time + offsets.(proc)], backdated by
      [timing.accessor_backdate] for pure accessors — then by process,
      with an accessor after a mutator of the same timestamp.
      [offsets] are the clock offsets the run used
      ({!Sim.Engine.effective_offsets}), in quanta of [1/per] of the
      time unit of [ops] and [timing] ([per > 0]); timestamps are
      compared in those quanta.  A candidate only: the checker
      verifies it (Lemma 5 is what makes it legal). *)

  val create :
    ?retain_events:bool ->
    model:Sim.Model.t ->
    x:Rat.t ->
    offsets:Rat.t array ->
    delay:Sim.Net.t ->
    unit ->
    t
  (** Algorithm 1 with the (repaired) default timing.
      @raise Invalid_argument if [x] is outside [[0, d - eps]]. *)

  val replica_state : t -> int -> T.state
  (** Read-only view of one replica, for convergence checks. *)

  val replicas_converged : t -> bool
  (** After quiescence, do all replicas hold equal states? *)

  val states_converged : states -> bool
  (** {!replicas_converged} on bare replica states — for runs whose
      handlers were wrapped (e.g. by the reliable channel) and so never
      materialized a [t]. *)
end
