(** Sharded composite runtime: one keyspace served by N independent
    Algorithm 1 clusters, certified per object key.

    Linearizability is local (paper §2.3), and this module uses the
    fact twice.  A seed-deterministic workload stream
    ({!Core.Workload.Gen}) over a Zipf-skewed keyspace is partitioned
    by [key mod shards]; each shard runs a full
    [Runtime.Make (Spec.Keyed.Make (T))] cluster over only its keys, as
    one item of the {!Sweep.Runner} campaign runner.  Within a shard,
    every key's completed operations are projected out and certified
    independently with the per-type monitors, so a million-operation run
    decomposes into thousands of small [O(n log n)] checks.

    Determinism contract: every shard re-derives the same global
    stream from the config seed; per-shard network and fault seeds are
    FNV-1a hashes of canonical shard coordinates; merging uses exact
    accumulators and bucket-wise histogram addition.  {!fingerprint} is
    therefore byte-identical for every [jobs] count. *)

(** Everything that defines a sharded run, mirroring
    {!Core.Runtime.Make.Config}. *)
module Config : sig
  type t = {
    shards : int;
    ops : int;  (** total operations across all shards *)
    keys : int;  (** keyspace size (keys are [0 .. keys-1]) *)
    arrival : Core.Workload.arrival;
    zipf : float;  (** key-skew exponent; 0 = uniform *)
    faults : Sim.Fault.plan;
        (** nemesis template; each shard runs it under a derived seed *)
    channel : Core.Reliable.config option;
        (** reliable-channel leg, as in [Runtime.Config.channel] *)
    checker : Core.Runtime.checker;  (** per-key certification engine *)
    max_events : int option;
        (** per-shard step limit; defaults to headroom proportional to
            the shard's share of the stream *)
    max_check_nodes : int option;
    model : Sim.Model.t;  (** each shard runs its own [n]-process cluster *)
    algorithm : Core.Runtime.algorithm;
    seed : int;
  }

  val make :
    ?keys:int ->
    ?zipf:float ->
    ?faults:Sim.Fault.plan ->
    ?channel:Core.Reliable.config ->
    ?checker:Core.Runtime.checker ->
    ?max_events:int ->
    ?max_check_nodes:int ->
    ?seed:int ->
    shards:int ->
    ops:int ->
    arrival:Core.Workload.arrival ->
    model:Sim.Model.t ->
    algorithm:Core.Runtime.algorithm ->
    unit ->
    t
  (** Defaults: 64 keys, uniform ([zipf = 0]), no faults, raw channel,
      [Monitor] checker, seed 0.
      @raise Invalid_argument on [shards < 1], [ops < 0] or
      [keys < 1]. *)

  val reliable : ?config:Core.Reliable.config -> t -> t
  (** Set the [channel] field; [config] defaults to
      [Core.Reliable.default_config] of the record's model. *)
end

type shard_report = {
  shard : int;
  keys : int;  (** distinct keys that completed an operation here *)
  operations : int;
  messages : int;
  events : int;
  pending : int;
  truncated : bool;
  delays_admissible : bool;
  skew_admissible : bool;
  faults : Sim.Trace.fault_counts;
  linearizable : bool;  (** every key's projection certified *)
  uncertified_keys : int list;
  fallbacks : int;  (** per-key checks that fell back to Wing-Gong *)
  checked_by : string;
  certified : bool;
      (** run healthy (complete, admissible, untruncated) and
          [linearizable] *)
  hist : Core.Metrics.Hist.t;
  by_op : (string * Core.Metrics.summary) list;
}

type t = {
  data_type : string;
  algorithm : string;
  shards : int;
  ops : int;
  keyspace : int;
  arrival : string;
  zipf : float;
  seed : int;
  reports : shard_report Sweep.Pool.outcome array;  (** positional, by shard *)
  hist : Core.Metrics.Hist.t;  (** merged across shards *)
  operations : int;
  messages : int;
  events : int;
  pending : int;
  faults : Sim.Trace.fault_counts;  (** summed across shards *)
  certified : bool;  (** every shard completed and certified *)
  replayed : int;  (** shards answered from the resume journal *)
  interrupted : bool;  (** a stop request drained the pool early *)
  journal_diagnostics : string list;
      (** named corruption/truncation findings from journal loading *)
  jobs : int;
  wall_s : float;
}

val journal_header : string
(** {!Sweep.Journal.header} of shard journals, whose records are
    [(shard_report, string) result]s (schema 2). *)

module Make (T : Spec.Data_type.S) : sig
  val run_shard : Config.t -> shard:int -> shard_report
  (** Run one shard inline (used by {!run}; exposed for tests). *)

  val run :
    ?jobs:int ->
    ?should_stop:(unit -> bool) ->
    ?journal_dir:string ->
    ?sync_every:int ->
    ?code_fp:string ->
    Config.t ->
    t
  (** Run all shards on [jobs] pool domains (default 1 = inline) and
      merge, through {!Sweep.Runner.run}: each shard is one campaign
      item.  Everything but [jobs] and [wall_s] is independent of
      [jobs].  With [journal_dir], completed shard reports are
      journaled (checksummed, fsync'd every [sync_every]) and shards
      already journaled with a matching
      {!Sweep.Runner.input_fingerprint} ([code_fp] overrides the binary
      digest; tests) are replayed instead of re-run, so an interrupted
      [repro load] resumes with a byte-identical {!fingerprint}; failed
      shards always run again.  [should_stop] drains the pool
      gracefully and marks the run [interrupted]. *)
end

val run :
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?journal_dir:string ->
  ?sync_every:int ->
  ?code_fp:string ->
  Config.t ->
  Sweep.Packed_type.t ->
  t
(** {!Make.run} dispatched over a packed bundled type. *)

val fingerprint : t -> string
(** Deterministic rendering of per-shard and aggregate results;
    excludes [jobs] and [wall_s], so it is byte-identical across
    [--jobs] counts. *)

val pp : Format.formatter -> t -> unit
val pp_json : Format.formatter -> t -> unit
(** The [BENCH_load.json] artifact: per-shard reports plus the
    aggregate certification and quantiles. *)
