(** Folklore baseline 1 (paper §1): the centralized algorithm.

    Every invocation is forwarded to the distinguished process [p_0],
    which applies it to the single authoritative copy in arrival order
    and replies.  Requests and replies carry the invoking process's
    operation number: a duplicated request is applied once, and a
    reply that is not for the pending operation is dropped.
    Linearization order = application order at [p_0]; each operation
    takes up to [2d] (request + reply), and operations invoked at
    [p_0] itself are free. *)

type log = int list array
(** The coordinator's apply log: for each key, the process each apply
    on that key served, latest apply first. *)

module Make (T : Spec.Data_type.S) : sig
  type msg
  type tag

  type hub
  (** The single authoritative copy held at the coordinator. *)

  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  type t = { engine : engine; hub : hub }

  val fresh_hub : ?key_of:(T.invocation -> int) -> n:int -> unit -> hub
  (** A hub for [n] processes.  [key_of] (default: every invocation on
      key 0) names the key, a non-negative int, each apply is logged
      under, so that the order of one key's operations can be read
      without the others ({!linearization}). *)

  val protocol : hub -> (msg, tag, T.invocation, T.response) Sim.Engine.handlers
  (** The algorithm's handler triple over [hub], decoupled from engine
      construction so it can also run wrapped by the reliable channel
      ([Core.Reliable]) over a lossy network. *)

  val create :
    model:Sim.Model.t ->
    offsets:Rat.t array ->
    delay:Sim.Net.t ->
    unit ->
    t

  val master : t -> T.state
  (** Read-only view of the authoritative copy. *)

  val log : hub -> log
  (** The apply log so far. *)

  val linearization :
    log ->
    key:int ->
    (T.invocation, T.response) Sim.Trace.operation array ->
    int array
  (** The order this algorithm linearized the operations on [key] in,
      as positions in [ops], which holds exactly the run's completed
      operations on [key]: the coordinator's apply order on [key],
      which the log holds as one int (the invoking process) per
      apply.
      Each process's operations must appear in [ops] in invocation
      order, as {!Sim.Trace.operations} lists them.  A candidate only:
      the checker verifies it. *)
end
