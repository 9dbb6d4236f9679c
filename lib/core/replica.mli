(** The replicas of one cluster, and the replay log they share.

    Algorithm 1 ({!Wtlw}) and the total-order baseline ({!Tob}) apply
    every mutator at every replica in the same timestamp order, so the
    replicas of an admissible run compute one chain of states.  Each
    replica still applies every mutator in its own order; the simulator
    computes a step once and lets the other replicas reuse its
    immutable result.

    A replica reuses a recorded step only when its current state is
    physically the step's input and the invocation is the same ([==]
    or [T.equal_invocation]); otherwise it calls [T.apply] itself and
    records the result.  Because [T.apply] is total and deterministic
    ({!Spec.Data_type.S}) and specifications hold no mutable state, a
    reused state and response equal what the replica would have
    computed — also in ablated or faulted runs, where replicas
    diverge and a diverged replica simply computes its own states.

    The log keeps a window of the most recent steps: none until the
    first apply, then 4 slots, doubled up to 32 whenever a replica
    still needs the step that would be overwritten.  A replica more
    than 32 steps behind the newest step computes its own. *)

module Make (T : Spec.Data_type.S) : sig
  type t

  val create : n:int -> t
  (** [n] replicas, each in [T.initial], and an empty log. *)

  val apply : t -> int -> T.invocation -> T.response
  (** [apply t i inv] applies [inv] to replica [i]'s state, moves
      replica [i] to the successor state and returns the response. *)

  val state : t -> int -> T.state
  (** Replica [i]'s current state. *)

  val converged : t -> bool
  (** Do all replicas hold equal states? *)
end
