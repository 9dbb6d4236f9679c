(** Per-commit bench history and the regression gate.

    Each bench section persists one datapoint per commit into
    [bench/history/<bench>.jsonl] — one JSON object per line, appended
    in chronological order.  Only {e deterministic} metrics are
    persisted (allocation counters and the event count); wall time and
    instruction counts vary run to run and would break the property
    the gate relies on: re-running an unchanged workload rewrites the
    history file byte-for-byte identically.

    Promoted words are the mean over {!Suite.phases} runs, each started
    at a different phase of the minor heap ({!Suite.measure},
    {!average}): a single run's count depends on which young blocks its
    few minor collections happen to find live.  Older datapoints in a
    history file counted one unshifted run without the final
    collection; they stay for the record, and the gate reads only the
    most recent one.

    Comparison normalizes by the event count, so a deliberate workload
    resize does not masquerade as an allocation regression. *)

type datapoint = {
  commit : string;  (** full git sha, or ["unknown"] outside a repo *)
  bench : string;
  events : int;  (** workload scale; denominator for the gate *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

val of_metrics :
  commit:string -> bench:string -> events:int -> Measure.metrics -> datapoint

val average : datapoint list -> (datapoint, string) result
(** One datapoint for a section measured at several phases of the
    minor heap ({!Suite.measure}), phase 0 first: promoted and major
    words and both collection counts are the means over the points,
    rounded to a whole word or collection; everything else, minor
    words included, is the first point's, so the minor-words gate reads
    the unshifted run as before.  [Error] on an empty list or on points
    that disagree on the event count. *)

val to_line : ?extra:(string * Core.Json.t) list -> datapoint -> string
(** One compact JSON object, no trailing newline.  Field order is
    fixed so that equal datapoints serialize to equal bytes; [extra]
    fields follow the datapoint's, for display only. *)

val of_line : string -> datapoint option
(** Reads a line back through {!Core.Json.parse}; fields other than
    the datapoint's are ignored.  [None] when the line is no JSON
    object or lacks a field. *)

val load : file:string -> datapoint list
(** Datapoints in file order; a missing file is an empty history. *)

val upsert : file:string -> datapoint -> unit
(** Replace the existing entry with the same commit in place, or
    append.  Creates the file (and its directory) on first use; the
    write is atomic (temp file + rename).  Re-recording an identical
    datapoint leaves the file byte-identical. *)

val pick_baseline :
  ?ref_prefix:string ->
  head:string ->
  datapoint list ->
  (datapoint option, string) result
(** The datapoint to gate against.  With [ref_prefix], the most recent
    entry whose commit starts with that prefix ([Error] if none
    matches).  Otherwise the most recent entry for a commit other than
    [head], falling back to [head]'s own entry (a rerun then compares
    against itself and trivially passes); [Ok None] on an empty
    history. *)

val tolerance : float
(** [0.02]: the change of per-event allocation {!gate} allows. *)

val gate :
  recorded:datapoint option ->
  baseline:datapoint ->
  current:datapoint ->
  (string, string) result
(** Two-sided: [Ok summary] when [current]'s per-event [minor_words]
    and [promoted_words] are each within [(1 ± tolerance)] of
    [baseline]'s; [Error summary] otherwise.  Growth beyond the
    tolerance is a ["REGRESSION"].  A drop beyond it is an
    ["UNRECORDED IMPROVEMENT"] unless [recorded] — the history's
    datapoint for the commit being measured, if it has one — is within
    the tolerance of [current]: a gain passes only once it is in the
    history, so the next change is gated against the new number. *)
