(** Multicore sweep engine behind the unified [Runtime.Config] API.

    A {e sweep} evaluates a declarative campaign {!grid} — data type x
    algorithm x model point x fault plan x channel leg x seed — by
    sharding cells across a fixed pool of OCaml domains ({!Pool}).
    Each cell is a scenario ([Scenario.of_sweep_cell]), lowered and
    run by [Scenario.Exec.Run(T).run_report], and is judged
    both end-to-end ([Runtime.ok]) and against the paper's Table 5
    upper-bound formula for its class and algorithm.

    {b Determinism.}  A cell's behaviour is a pure function of its
    coordinates: the per-cell RNG seed is {!derived_seed}, an FNV-1a
    hash of the canonical {!cell_key} — never the claiming domain or
    the wall clock — and campaign summaries are merged with exact
    rational arithmetic.  {!fingerprint} is therefore byte-identical
    for every [--jobs] count; only [wall_s] and [jobs] vary, and both
    are excluded from it. *)

module Pool = Pool
module Packed_type = Scenario.Packed_type

module Journal = Journal
(** Checksummed append-only checkpoint journal (durable campaigns). *)

module Lease = Lease
(** link(2)-based filesystem leases with heartbeats (spool workers). *)

module Runner = Runner
(** The one campaign runner: journal replay, pool execution, journal
    append (sweeps, load shards, spool merges). *)

(** {1 The grid}

    The grid and its cells are {!Scenario.Grid}, re-exported here. *)

include module type of struct
  include Scenario.Grid
end

(** {1 Evaluation} *)

(** Per-cell verdict. *)
type verdict = {
  key : string;
  run_seed : int;
  ok : bool;  (** [Runtime.ok]: complete, admissible, linearizable *)
  bound_ok : bool;  (** every class's worst latency within its bound *)
  certified : bool;  (** [ok && bound_ok] *)
  operations : int;
  messages : int;
  events : int;
  pending : int;
  truncated : bool;
  retransmits : int;  (** reliable-channel retransmissions (0 for raw) *)
  latency : Core.Metrics.summary option;  (** all operations pooled *)
  hist : Core.Metrics.Hist.t;
      (** streaming latency histogram of the run (p50/p99/p999) *)
  by_op : (string * Core.Metrics.summary) list;
      (** per-operation-name latency summaries (the table rows) *)
  by_kind : (Spec.Op_kind.t * Core.Metrics.summary) list;
  bounds : (Spec.Op_kind.t * Rat.t * Rat.t) list;
      (** (class, worst observed, Table 5 upper bound), judged against
          the model the run actually implemented — the inflated model
          for recovered legs *)
}

val eval :
  ?wall_budget_s:float -> ?key:string -> grid -> cell -> (verdict, string) result
(** Evaluate one cell.  [key], when given, must be [cell_key grid cell]
    (a campaign renders it once and reuses it); without it the key is
    rendered here.  [Error] carries a named diagnostic, one per
    [Scenario.Exec.abort]: the checker's node budget was exceeded
    ([Node_budget_exceeded]), the per-cell wall budget expired
    ([Cell_timeout] — set [wall_budget_s]; 0.0 expires
    deterministically on the first simulation event), the
    configuration was rejected, or a time overflowed [Rat]. *)

(** Bounded retry for wedged cells: up to [attempts] evaluations, the
    wall budget multiplied by [backoff] after each timeout.
    Non-timeout failures are deterministic and never retried. *)
type retry = { attempts : int; budget_s : float; backoff : float }

val eval_with_retry :
  ?retry:retry ->
  ?key:string ->
  grid ->
  cell ->
  (verdict, string) result * int
(** Evaluate under the retry policy (no policy: one plain {!eval});
    also returns the number of attempts spent. *)

val input_fingerprint : ?code_fp:string -> grid -> cell -> int
(** {!Runner.input_fingerprint} of the cell key under the grid's
    budgets and checker.  A journaled cell is replayed only while this
    fingerprint still matches; recompiling therefore invalidates cells
    individually. *)

(** {!Runner.meta}, excluded from {!fingerprint} like [jobs]/[wall_s]. *)
type cell_meta = Runner.meta = {
  wall_s : float;
  attempts : int;
  replayed : bool;
}

type resume_stats = Runner.resume_stats = {
  replayed : int;
  invalidated : int;
  executed : int;
  interrupted : bool;
  journal_diagnostics : string list;
}

(** Campaign result. *)
type t = {
  grid : grid;
  cells : cell array;
  keys : string array;
      (** [cell_key grid] of each cell, positional, rendered once *)
  results : verdict Pool.outcome array;  (** positional, same order *)
  meta : cell_meta array;  (** positional, same order *)
  total : Core.Metrics.summary option;
      (** merged latency summary over every completed cell *)
  hist : Core.Metrics.Hist.t;
      (** merged latency histogram over every completed cell; bucket
          addition is exact, so aggregate quantiles are
          partition-independent *)
  by_kind : (Spec.Op_kind.t * Core.Metrics.summary) list;
      (** merged per-class summaries, sorted by class name *)
  resume : resume_stats;
  jobs : int;
  wall_s : float;
}

val run :
  ?jobs:int ->
  ?fail_fast:bool ->
  ?retry:retry ->
  ?should_stop:(unit -> bool) ->
  grid ->
  t
(** Evaluate the whole grid through {!Runner.run} on [jobs] domains
    (default 1 = inline); the merged summaries are folded once over
    the outcomes after the pool finishes.  With
    [fail_fast] the first failed cell cancels unclaimed cells
    (reported as [Skipped]); in-flight cells still complete and no
    verdict is lost.  [should_stop] (e.g. [Pool.Interrupt.requested])
    drains the pool the same graceful way and marks the campaign
    [resume.interrupted].  [retry] applies the per-cell wall budget
    with bounded backoff. *)

val run_durable :
  ?jobs:int ->
  ?fail_fast:bool ->
  ?retry:retry ->
  ?should_stop:(unit -> bool) ->
  ?sync_every:int ->
  ?replay_failures:bool ->
  ?code_fp:string ->
  dir:string ->
  grid ->
  t
(** {!run}, checkpointed: every completed cell (verdict or diagnostic)
    is appended to [dir]/journal — keyed by {!cell_key}, fingerprinted
    by {!input_fingerprint}, checksummed, and fsync'd every
    [sync_every] records (default 1) — and cells already journaled
    with a matching input fingerprint are replayed instead of re-run.
    Because summary merging is exact, the resumed campaign's
    {!fingerprint} is byte-identical to an uninterrupted run's.  A
    corrupt or torn journal tail is reported in
    [resume.journal_diagnostics] and truncated, never fatal.
    [replay_failures] (default true) also replays journaled
    diagnostics; pass false to re-run previously failed cells. *)

val certified : t -> bool
(** Non-empty, and every cell completed with [verdict.certified]. *)

val counts : t -> int * int * int * int
(** [(done, certified, failed, skipped)]. *)

val fingerprint : t -> string
(** Deterministic rendering of every verdict plus the merged
    summaries; excludes [wall_s] and [jobs], so it is byte-identical
    across [--jobs] counts. *)

val pp : Format.formatter -> t -> unit
val pp_json : Format.formatter -> t -> unit
(** The [BENCH_sweep.json] artifact: per-cell verdicts, latency
    summaries, worst observed latency vs the bound formula, aggregate
    certification. *)

(** {1 Shared-spool worker mode}

    N processes split one campaign: each claims cells from a spool
    directory via {!Lease} (atomic claims, heartbeats, stale-lease
    takeover), journals results durably, and marks them done; a final
    {!Spool.merge} assembles the same byte-identical {!fingerprint} a
    single-process run produces. *)
module Spool : sig
  val init : dir:string -> grid -> (unit, string) result
  (** Create the spool layout ([MANIFEST], [leases/], [journals/],
      [done/]) or validate an existing one; [Error] if [dir] already
      holds a different campaign. *)

  val status : dir:string -> grid -> (int * int, string) result
  (** [(done_cells, total_cells)]. *)

  type worker_report = {
    worker : string;
    completed : int;  (** cells this worker evaluated and journaled *)
    failed : int;  (** of those, cells that produced a diagnostic *)
    takeovers : int;  (** stale leases evicted *)
    interrupted : bool;
  }

  val worker :
    ?worker_id:string ->
    ?retry:retry ->
    ?should_stop:(unit -> bool) ->
    ?sync_every:int ->
    ?lease_ttl_s:float ->
    ?poll_s:float ->
    ?code_fp:string ->
    dir:string ->
    grid ->
    (worker_report, string) result
  (** Claim, evaluate, journal and mark cells until every cell of the
      campaign is done (polling every [poll_s] while other workers
      hold the remainder) or [should_stop] fires.  [worker_id]
      defaults to host-pid; it names the lease owner and the worker's
      journal.  A lease not heartbeated for [lease_ttl_s] (default
      60 s) is presumed dead and taken over — safe because cells are
      deterministic and journal replay is last-record-wins. *)

  val merge : ?code_fp:string -> dir:string -> grid -> (t, string) result
  (** Replay every worker journal through the same {!Runner} a single
      process uses; [Error] while any cell is missing (or journaled
      with a stale input fingerprint). *)
end

(** {1 The paper's tables, measured} *)

(** A bound-table row beside the worst case each algorithm reached. *)
type measured_row = {
  row : Bounds.Tables.row;
  alg1 : Rat.t option;
      (** Algorithm 1's worst case over the row's measures (their sum
          for a sum row); [None] if a measure never completed *)
  centralized : Rat.t option;  (** the centralized baseline's *)
  tob : Rat.t option;  (** the total-order-broadcast baseline's *)
  within : bool;  (** new LB <= [alg1] <= new UB; [true] if unmeasured *)
}

type measured_table = {
  table : Bounds.Tables.table;
  measured : measured_row list;  (** one per row, in order *)
}

val measure_tables :
  Sim.Model.t -> x:Rat.t -> (measured_table list, string) result
(** Tables 1-5 at [model] and [x], each row measured by one campaign:
    rmw-register, queue, stack and tree x Algorithm 1 at [x],
    centralized and TOB x random, all-max and all-min delays x seeds
    10 and 11, 8 operations per process, raw channel, one domain.
    Tables 1-4 take each operation's worst case on their type; Table 5
    takes each class's worst case over all four types.  [Error] names
    the first cell that failed.
    @raise Rat.Overflow if the bound formulas leave [Rat]'s range. *)

val pp_measured_table : Format.formatter -> measured_table -> unit
(** The table's bounds, the three algorithms' worst cases and the
    verdict on Algorithm 1's, one line per row. *)

(** {1 Robustness matrix} *)

val robustness :
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  model:Sim.Model.t ->
  x:Rat.t ->
  seed:int ->
  Packed_type.t list ->
  Scenario.Robustness.cell list
(** The full (data type x nemesis case) robustness matrix, one pool
    job per cell, always in (type, case) order and identical for every
    [jobs] count.  [fail_fast] is deliberately not offered —
    certification needs every cell's verdict.  A job that dies becomes
    an aborted cell (which counts as flagged/detection), never a lost
    report. *)
