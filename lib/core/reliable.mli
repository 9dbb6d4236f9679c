(** Reliable FIFO channels over a lossy network, by ack + retransmit.

    The paper's model (§2.2) assumes channels that deliver every
    message exactly once; the fault injector ([Sim.Fault]) breaks that
    with drops, duplicates and delay spikes.  This layer restores the
    assumption end-to-end: every application message is wrapped in a
    {!wire} envelope carrying a per-(sender, destination) sequence
    number, the receiver acknowledges and deduplicates, in-order
    delivery is enforced by a hold-back buffer, and unacknowledged
    payloads are retransmitted every [rto] up to [max_retries]
    times.

    {b Effective delay bound.}  If any of the [1 + max_retries]
    transmissions of a payload survives, the last one departs at most
    {!retry_budget} [= k * rto] after the original send and arrives at
    most [d] later, so the application sees a channel with delays in
    [[0, d']] where [d' = d + k * rto] ({!effective_delay}).
    Re-running an algorithm unmodified over the wrapped handlers against
    [Model.make ~d:d' ~u:d'] ({!inflated_model}) therefore restores
    the hypotheses of its linearizability proof, and the checker can
    certify the recovery machine-checked ([Scenario.Robustness]). *)

type config = {
  rto : Rat.t;  (** retransmission timeout before each retry *)
  max_retries : int;  (** retransmissions per payload ([k]; >= 0) *)
}

val config : ?max_retries:int -> rto:Rat.t -> unit -> config
(** @raise Invalid_argument if [rto <= 0], or if [max_retries] is
    negative or above {!Retransmit_tag.max_retries}. *)

val default_config : Sim.Model.t -> config
(** [rto = 2d] (a full request/ack round trip), [max_retries = 6]. *)

val retry_budget : config -> Rat.t
(** [max_retries * rto]: real time between the first and the last
    transmission of a payload. *)

val effective_delay : config -> d:Rat.t -> Rat.t
(** [d + retry_budget config]: the worst-case application-level delay
    when at least one transmission survives. *)

val inflated_model :
  ?extra_skew:Rat.t -> ?max_spike:Rat.t -> config -> Sim.Model.t -> Sim.Model.t
(** The model the recovered system actually implements:
    [d' = max (effective_delay) (d + max_spike)], [u' = d'] (the layer
    guarantees no minimum delay), [eps' = eps + extra_skew].
    [max_spike] accounts for injected above-envelope delay spikes
    ({!Sim.Fault.max_spike}); [extra_skew] for injected clock
    perturbations ({!Sim.Fault.extra_skew}).  Both default to [0]. *)

(** The wire envelope around application messages. *)
type 'msg wire =
  | Payload of { seq : int; msg : 'msg }
  | Ack of { seq : int }

type 'tag timer
(** Wire-level timer tags: either the application's own timers or the
    layer's retransmission timers. *)

(** A retransmission timer's tag: the payload's destination, its
    sequence number on the stream and the attempt the timer starts,
    packed into one int. *)
module Retransmit_tag : sig
  val max_retries : int
  (** [254]: the largest [max_retries] a tag counts to, since a timer
      fires with attempt [max_retries + 1] to abandon its payload. *)

  val seq_limit : int
  (** [2^34]: the first sequence number a tag cannot carry. *)

  val pack : dst:int -> seq:int -> attempt:int -> int
  (** @raise Invalid_argument naming the tag if [seq >= seq_limit]: a
      send that would number its payload so is refused. *)

  val dst : int -> int
  val seq : int -> int
  val attempt : int -> int
end

(** Per-run channel counters (all monotone). *)
type stats = {
  mutable sent : int;  (** application-level sends *)
  mutable retransmits : int;  (** extra transmissions triggered by timeout *)
  mutable acked : int;  (** payloads confirmed by a first ack *)
  mutable duplicates : int;  (** received payload copies suppressed by dedup *)
  mutable exhausted : int;  (** payloads abandoned after [max_retries] *)
}

val wrap :
  config:config ->
  n:int ->
  ('msg, 'tag, 'inv, 'resp) Sim.Engine.handlers ->
  ('msg wire, 'tag timer, 'inv, 'resp) Sim.Engine.handlers * stats
(** [wrap ~config ~n handlers] interposes the reliable channel under an
    algorithm's handler triple (as produced by [Wtlw.Make.protocol]
    etc.): the algorithm runs unmodified, every [ctx.send]/[broadcast]
    it performs is wrapped in a {!Payload}, and its handlers see only
    deduplicated, per-edge-FIFO application messages.  The returned
    stats are live — read them after the run.

    The per-stream state lives in flat arrays indexed [self * n +
    peer], each stream's rings allocated at its first entry, so a send
    allocates its wire messages and its one-int retransmission tag
    and nothing else.

    The algorithm's handlers get one ctx, reused across events and
    processes exactly as {!Sim.Engine} reuses its own: [self] and the
    clock fields are re-stamped before each handler runs, so the ctx is
    valid only for the handler call it was passed to.
    @raise Invalid_argument if [config.max_retries] is out of
    {!config}'s range or [n] is above [2^20], the destinations a
    {!Retransmit_tag} holds. *)
