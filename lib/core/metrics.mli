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

  val summary : t -> summary option
  (** [None] before the first {!add}. *)

  val absorb : t -> summary -> unit
  (** Fold a finished summary into the accumulator exactly (the
      summary's rational sum is recovered as [mean * count]).
      Associative and commutative, so totals do not depend on the order
      summaries are absorbed in. *)
end

(** Keyed streaming accumulators (one {!Acc} per key), preserving
    first-seen key order — the incremental form of {!by_op} /
    {!by_kind}. *)
module Grouped : sig
  type 'k t

  val create : unit -> 'k t
  val add : 'k t -> 'k -> Rat.t -> unit

  val summaries : ?quantum:int -> 'k t -> ('k * summary) list
  (** In first-seen key order.  [quantum] (default 1): the samples were
      counted in units of [1/quantum]; the summaries are in time
      units. *)

  val absorb : 'k t -> 'k -> summary -> unit
  (** Keyed {!Acc.absorb}. *)
end

(** Streaming log-bucketed latency histogram for tail quantiles.
    Values land in geometric buckets (16 per octave, ~4.4% relative
    width).  The bucket of zero latencies is a count; of the others,
    only the buckets between the smallest and the largest one seen are
    stored (none before the first sample), so state stays a few dozen
    ints however many million samples stream through, and equal
    contents are structurally equal.  Count, min, max and mean
    remain exact rationals; quantiles are bucket upper edges
    (conservative for the tail), clamped into the observed [min, max]
    range.

    A histogram may take its samples in units of [1/quantum] time
    units, as a run that counts time in integer quanta produces them:
    buckets, summaries and quantiles are still those of the samples in
    time units. *)
module Hist : sig
  type t

  type quantiles = { p50 : float; p99 : float; p999 : float }

  val create : ?quantum:int -> unit -> t
  (** [quantum] (default 1): {!add} takes samples counted in units of
      [1/quantum].
      @raise Invalid_argument if [quantum < 1]. *)

  val add : t -> Rat.t -> unit
  val count : t -> int

  val settle : t -> unit
  (** Divide the exact accumulators by the quantum and make it 1: the
      histogram reads the same and now takes samples in time units.
      Histograms with equal samples in time units are then
      structurally equal. *)

  val merge : t -> t -> unit
  (** [merge t other] adds [other]'s buckets and exact accumulators
      into [t], after settling [t] ({!settle}); [other] is left
      untouched.  Bucket-wise integer
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

  val json_of_quantiles : quantiles -> Json.t
  (** [p50], [p99] and [p999] to six significant digits. *)

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

val json_of_summary : summary -> Json.t
(** [count], [min], [max] and [mean], the rationals as strings. *)
