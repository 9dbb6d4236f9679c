(** Latency measurement over completed operations.

    The paper's complexity measure [|OP|] is the supremum of response
    minus invocation time over all admissible runs.  For the paper's
    algorithm latencies are timer-determined constants per class, so
    measured maxima equal the true bounds; for the baselines,
    adversarial delay schedules realize the worst case. *)

type summary = { count : int; min : Rat.t; max : Rat.t; mean : Rat.t }

val latency : ('inv, 'resp) Sim.Trace.operation -> Rat.t
(** [resp_time - inv_time]. *)

(** Streaming latency accumulator: O(1) state, exact rational mean.
    Feed it from a {!Sim.Trace.on_operation} observer to summarize a
    run without retaining per-operation latencies. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> Rat.t -> unit
  val count : t -> int

  val summary : t -> summary option
  (** [None] before the first {!add}. *)

  val absorb : t -> summary -> unit
  (** Fold a finished summary into the accumulator exactly (the
      summary's rational sum is recovered as [mean * count]).
      Associative and commutative, so totals do not depend on the order
      summaries are absorbed in. *)

  val merge : t -> t -> unit
  (** [merge acc other] absorbs [other]'s current summary into [acc];
      [other] is left untouched. *)
end

(** Keyed streaming accumulators (one {!Acc} per key), preserving
    first-seen key order — the incremental form of {!by_op} /
    {!by_kind}. *)
module Grouped : sig
  type 'k t

  val create : unit -> 'k t
  val add : 'k t -> 'k -> Rat.t -> unit

  val summaries : 'k t -> ('k * summary) list
  (** In first-seen key order. *)

  val absorb : 'k t -> 'k -> summary -> unit
  (** Keyed {!Acc.absorb}. *)

  val merge : 'k t -> 'k t -> unit
  (** Absorb every keyed summary of the second accumulator into the
      first (first-seen order of the target is extended by the source's
      unseen keys). *)
end

(** Streaming log-bucketed latency histogram for tail quantiles.
    Values land in geometric buckets (16 per octave, ~4.4% relative
    width), so state stays a few hundred ints however many million
    samples stream through.  Count, min, max and mean remain exact
    rationals; quantiles are bucket upper edges (conservative for the
    tail), clamped into the observed [min, max] range. *)
module Hist : sig
  type t

  type quantiles = { p50 : float; p99 : float; p999 : float }

  val create : unit -> t
  val add : t -> Rat.t -> unit
  val count : t -> int

  val merge : t -> t -> unit
  (** [merge t other] adds [other]'s buckets and exact accumulators
      into [t]; [other] is left untouched.  Bucket-wise integer
      addition is commutative and associative, so a merged histogram
      does not depend on the order of its parts. *)

  val summary : t -> summary option
  (** Exact count/min/max/mean of everything added; [None] when
      empty. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [(0, 1]]; [nan] when empty. *)

  val quantiles : t -> quantiles option
  (** p50 / p99 / p999; [None] when empty. *)

  val pp_quantiles : Format.formatter -> quantiles -> unit
  (** ["p50=... p99=... p999=..."], the form fingerprints use. *)

  val pp_json_quantiles : Format.formatter -> quantiles -> unit
  (** [{"p50":...,"p99":...,"p999":...}] *)

  val pp : Format.formatter -> t -> unit
end

val summarize : Rat.t list -> summary option
(** [None] on the empty list; the mean is exact (rational). *)

val by_op :
  op_of:('inv -> string) ->
  ('inv, 'resp) Sim.Trace.operation list ->
  (string * summary) list
(** Latency summaries grouped by operation name, in first-seen order. *)

val by_kind :
  kind_of:('inv -> Spec.Op_kind.t) ->
  ('inv, 'resp) Sim.Trace.operation list ->
  (Spec.Op_kind.t * summary) list
(** Latency summaries grouped by operation class. *)

val max_latency : ('inv, 'resp) Sim.Trace.operation list -> Rat.t option

val pp_summary : Format.formatter -> summary -> unit

val pp_json_summary : Format.formatter -> summary -> unit
(** [{"count":n,"min":"r","max":"r","mean":"r"}], rationals as strings. *)
