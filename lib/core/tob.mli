(** Folklore baseline 2 (paper §1): replication over a clock-based
    total-order broadcast.

    Every operation — accessor or mutator alike — is timestamped,
    broadcast, and executed by all replicas at local time
    [ts + d + eps], which totally orders them; the invoker responds
    when it executes its own operation, so every operation takes
    exactly [d + eps].  The paper's algorithm beats this baseline on
    pure accessors and pure mutators. *)

module Make (T : Spec.Data_type.S) : sig
  type msg

  type tag
  (** The same type as {!msg} inside the implementation: a broadcast
      operation is also the tag of each of its copies' execute
      timers. *)

  type states
  (** The algorithm state of a cluster: the replicas with their shared
      replay log ({!Replica}), and each process's queue. *)

  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  type t = { engine : engine; states : states }

  val fresh_states : n:int -> states
  (** [n] processes, each replica in the initial state. *)

  val protocol :
    model:Sim.Model.t ->
    states ->
    (msg, tag, T.invocation, T.response) Sim.Engine.handlers
  (** The algorithm's handler triple over the given replica states
      (only the execution horizon [d + eps] is read from the model),
      decoupled from engine construction so it can also run wrapped by
      the reliable channel ([Core.Reliable]). *)

  val linearization :
    offsets:Rat.t array ->
    per:int ->
    (T.invocation, T.response) Sim.Trace.operation array ->
    int array
  (** The order this algorithm linearizes a run in, as positions in
      [ops]: by timestamp [(inv_time + offsets.(proc), proc)], the
      total order every replica executes in.  [offsets] are the clock
      offsets the run used ({!Sim.Engine.effective_offsets}), in quanta
      of [1/per] of the time unit of [ops] ([per > 0]).  A candidate
      only: the checker verifies it. *)

  val create :
    model:Sim.Model.t ->
    offsets:Rat.t array ->
    delay:Sim.Net.t ->
    unit ->
    t

  val replica_state : t -> int -> T.state
end
