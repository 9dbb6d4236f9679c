(** End-to-end harness: build a cluster running a chosen algorithm,
    drive a workload through it, and distill the trace into a report —
    completed operations, a machine-checked linearization, and latency
    summaries per operation and per class.

    The single entry point is {!Make.run}, which takes a
    {!Make.Config.t} record naming every knob of a run.

    A run counts time in one integer quantum [1/q] ({!Make.quantum}):
    everything it reads is computed in model units, multiplied by [q],
    and run on integers; times are divided by [q] only where they leave
    the run, in the report. *)

type algorithm =
  | Wtlw of { x : Rat.t }  (** the paper's Algorithm 1 (repaired timing) *)
  | Centralized  (** folklore: forward everything to [p_0] *)
  | Tob  (** folklore: clock-based total-order broadcast *)

val algorithm_name : algorithm -> string

type checker =
  | Monitor
      (** per-type O(n log n) monitors ({!Monitor.Make}); a history no
          monitor decides is checked against the algorithm's own
          linearization order, and goes to Wing-Gong only when that
          order is refused — the default *)
  | Wing_gong  (** force the exponential DFS (cross-validation) *)

val checker_name : checker -> string

val unscale_operation :
  int -> ('inv, 'resp) Sim.Trace.operation -> ('inv, 'resp) Sim.Trace.operation
(** [unscale_operation q op]: [op], whose times count quanta of [1/q],
    with its times in time units ([op] itself when [q = 1]). *)

type protocol_order
(** The order an algorithm linearized a run in, as data rather than a
    closure over the run's types: Algorithm 1's timing and the clock
    offsets the run used ({!Wtlw.Make.linearization}), the offsets
    alone ({!Tob.Make.linearization}), or the coordinator's per-key
    apply log ({!Centralized.Make.linearization}).  Any instance of
    {!Make} reads it over a history of its own type ({!Make.order_of}). *)

module Make (T : Spec.Data_type.S) : sig
  module Sem : module type of Spec.Data_type.Semantics (T)
  module Mon : module type of Monitor.Make (T)
  module Checker : module type of Lin.Checker.Make (T)

  type nonrec algorithm = algorithm =
    | Wtlw of { x : Rat.t }  (** the paper's Algorithm 1 (repaired timing) *)
    | Centralized  (** folklore: forward everything to [p_0] *)
    | Tob  (** folklore: clock-based total-order broadcast *)

  val algorithm_name : algorithm -> string

  type nonrec checker = checker =
    | Monitor
        (** per-type monitors, then the algorithm's own order, then
            Wing-Gong (default) *)
    | Wing_gong  (** force the exponential DFS *)

  type workload =
    | Schedule of T.invocation Workload.entry list
        (** open loop: explicit invocation times (caller must respect
            the one-pending-operation constraint) *)
    | Closed_loop of { per_proc : int; think : Rat.t; seed : int }
        (** each process performs [per_proc] random operations, each
            invoked [think] after the previous response *)
    | Paced : {
        route : 'inv Workload.Route.t;
        lift : key:int -> 'inv -> T.invocation;
        tick : Rat.t;
      }
        -> workload
        (** streamed open loop with backpressure: process [proc]'s
            arrivals are popped from [route] ({!Workload.Route.pop}),
            once at start-up and then on each response, and [lift
            ~key inv] builds the invocation the run makes from an
            arrival's key and generated invocation.  An arrival's time
            counts [tick]s of model time ([1/]{!Workload.Gen.quantum}
            for a generated stream); one earlier than the response
            that popped it is clamped forward, so the
            one-pending-operation constraint holds for any arrival
            rate.  Generator-driven million-op runs never materialize
            a schedule, and an arrival allocates only what [lift]
            builds.  A route created with a [min_gap], or a [tick]
            that is not positive, is refused with [Invalid_argument]. *)

  (** Description of the reliable channel a run was layered over
      ([Config.channel]): its retransmission config, the inflated model
      the report was judged against, and the channel counters. *)
  type channel = {
    config : Reliable.config;
    effective : Sim.Model.t;
    stats : Reliable.stats;
  }

  type report = {
    algorithm : string;
    operations : (T.invocation, T.response) Sim.Trace.operation list;
    linearization : int array option;
        (** a legal real-time-respecting total order, when [check] was
            set and one exists: positions in [operations], first to
            last *)
    by_op : (string * Metrics.summary) list;
    by_kind : (Spec.Op_kind.t * Metrics.summary) list;
    hist : Metrics.Hist.t;
        (** streaming latency histogram over all completed operations
            (p50/p99/p999 via {!Metrics.Hist.quantiles}) *)
    messages : int;
    events : int;
    pending : int;  (** invocations that never received a response *)
    delays_admissible : bool;
    skew_admissible : bool;
        (** were the clock offsets the processes actually ran with
            (engine offsets + injected perturbations) within the
            model's [eps]? *)
    faults : Sim.Trace.fault_counts;  (** injected-fault counters *)
    truncated : bool;
        (** the run hit the step limit; the report summarizes the
            prefix up to that point *)
    channel : channel option;  (** present for reliable-channel runs *)
    checked_by : string option;
        (** which engine produced [linearization]: a per-type monitor
            (["queue monitor"], ...), ["protocol-order"] (the
            algorithm's own order, verified), ["wing-gong"] (the
            [Wing_gong] checker), or ["monitor, fell back to
            wing-gong"]; [None] when checking was off *)
    order_failure : Monitor.order_failure option;
        (** why the checker refused the algorithm's own order, when it
            did — a named finding; Wing-Gong then decided.  Indices are
            positions in [operations] *)
    converged : bool option;
        (** for Wtlw runs: do all replicas hold equal states at
            quiescence?  [None] for the baselines (the centralized and
            TOB implementations keep no per-process replicas to
            compare) *)
  }

  (** Everything that defines one run, in one declarative record. *)
  module Config : sig
    type t = {
      check : bool;  (** run the linearizability checker (default true) *)
      faults : Sim.Fault.plan;  (** injected nemesis (default none) *)
      max_events : int option;
          (** engine step limit; an exceeded run is returned as a
              partial report with [truncated = true] *)
      max_check_nodes : int option;
          (** DFS node budget for the checker; an exceeded search
              raises {!Lin.Checker.Node_budget_exceeded} so a
              pathological cell aborts with a named diagnostic instead
              of hanging *)
      deadline : (unit -> bool) option;
          (** cooperative cancellation hook polled by the simulation
              loop; when it reports expiry the run aborts with
              {!Sim.Engine.Deadline_exceeded} (deliberately not caught:
              the sweep layer converts it into a [Cell_timeout]
              diagnostic, mirroring the node-budget pattern) *)
      checker : checker;
          (** which engine certifies histories (default [Monitor]) *)
      channel : Reliable.config option;
          (** [Some config]: wrap the algorithm's handlers in the
              {!Reliable} ack/retransmit channel and judge the whole
              run — internal timing, admissibility monitor, {!ok} —
              against [Reliable.inflated_model] ([d' = d + k * rto] by
              default, [eps] widened by the plan's injected skew).
              [None]: the algorithm runs directly on the network. *)
      timing : (Sim.Model.t -> x:Rat.t -> Wtlw.timing) option;
          (** override Algorithm 1's five waiting periods (the ablation
              knobs, [Core.Ablation.timing_of_knob]); applied to the
              model the run is judged against (the inflated model on
              reliable legs).  Overrides skip the run's X-validity
              check — ablation timings are deliberately
              outside the sound envelope.  Ignored by the baselines.
              [None] (the default): the repaired
              {!Wtlw.default_timing}. *)
      model : Sim.Model.t;
      offsets : Rat.t array;
      delay : Sim.Net.t;
      algorithm : algorithm;
      workload : workload;
    }

    val make :
      ?check:bool ->
      ?faults:Sim.Fault.plan ->
      ?max_events:int ->
      ?max_check_nodes:int ->
      ?checker:checker ->
      ?timing:(Sim.Model.t -> x:Rat.t -> Wtlw.timing) ->
      model:Sim.Model.t ->
      offsets:Rat.t array ->
      delay:Sim.Net.t ->
      algorithm:algorithm ->
      workload:workload ->
      unit ->
      t

    val reliable : ?config:Reliable.config -> t -> t
    (** Set the [channel] field; [config] defaults to
        [Reliable.default_config] of the record's model. *)
  end

  val certify :
    ?max_nodes:int ->
    ?order:(Mon.op array -> int array) ->
    checker:checker ->
    Mon.op array ->
    Mon.result
  (** The one certify path, used by {!run}, [Shard]'s per-key loop and
      [repro check].  [Monitor]: the per-type monitor, then the
      candidate order [order] (positions in the array, first to last)
      when no monitor decides, then Wing-Gong when [order] is absent or
      refused.  [Wing_gong]: the exhaustive search alone; [order] is
      never consulted.
      @raise Lin.Checker.Node_budget_exceeded when Wing-Gong runs and
      exceeds [max_nodes]. *)

  val quantum : Config.t -> int
  (** The run's quantum [q]: the least common multiple of the
      denominators of every time the run reads, in model units — the
      judged model's [d], [u] and [eps], the offsets, every delay
      value, the fault plan's margins and times, the reliable
      channel's [rto], Algorithm 1's X and timing (an override
      included), and the workload's times: schedule entries, the think
      time and first invocations of a closed loop, and
      {!Workload.Gen.quantum} for a paced one.
      @raise Invalid_argument naming an ["unrepresentable time
      quantum"] when [q] does not fit in an int, or an
      ["unrepresentable time horizon"] when [(2 * c + 1)] times the
      largest of those times, in quanta, does not; as {!run} does
      before it runs.  [c] bounds how many events one chain of the
      run's events can hold, each scheduled by the one before:
      [max_events], or for a [Schedule] workload 3 on the raw channel
      and [2 * max_retries + 3] on the reliable one, if that is
      fewer. *)

  val run : Config.t -> report
  (** Build, drive to quiescence, and summarize in one pass over the
      trace's streaming sinks.  The engine never retains its event
      list: counts, latency summaries, pairing and admissibility all
      come from the sinks.
      Injected faults show up in the report's [faults] counters and its
      admissibility / pending / linearization verdicts.  A run
      exceeding [max_events] is returned as a partial report with
      [truncated = true] rather than raising.
      @raise Lin.Checker.Node_budget_exceeded when [max_check_nodes]
      is set and the linearizability search exceeds it.
      @raise Sim.Engine.Deadline_exceeded when [deadline] is set and
      reports expiry mid-run. *)

  val run_with_order :
    Config.t ->
    report
    * ((T.invocation, T.response) Sim.Trace.operation array -> int array)
  (** {!run}, also returning the order the algorithm linearized the run
      in ({!Wtlw.Make.linearization}, {!Tob.Make.linearization},
      {!Centralized.Make.linearization}) as a function of
      [Array.of_list report.operations], giving positions in it.  It is
      the order the [Monitor] checker consults when no monitor decides;
      exposed so tests can cross-check it against the other oracles. *)

  val order_of :
    protocol_order ->
    key:int ->
    (T.invocation, T.response) Sim.Trace.operation array ->
    int array
  (** [order_of order ~key ops]: [ops] in the order [order] names, as
      positions in [ops].  [ops] holds exactly the completed operations
      on [key] of the run [order] came from, projected onto [T] or not,
      in invocation order with ties in response order.  The result is
      the whole run's order restricted to [key]; for [Centralized],
      when no request was applied twice, since a duplicate shifts the
      match on its own key only.  The timestamp orders ignore [key];
      the apply log reads [key]'s applies alone.  {!run_with_order}
      reads the whole run as key 0. *)

  val run_in_quanta :
    key_of:(T.invocation -> int) ->
    deal:((T.invocation, T.response) Sim.Trace.operation -> unit) ->
    Config.t ->
    report * protocol_order * int
  (** The run, unchecked (the config's [check] is ignored), for a caller
      that certifies it key by key ([Shard]).  Each completed operation
      goes to [deal] as its response is recorded, in response order, and
      the run keeps no copy of it ({!Sim.Trace.hand_over}): the report's
      [operations] is empty.  Also returns the order the algorithm
      linearized the run in, for {!order_of} over each key's history,
      and the run's quantum [q] ({!quantum}).  [key_of] names the
      non-negative key each invocation is on, under which a centralized
      run logs its applies.  The operations, and the order, are in
      quanta of [1/q]; every field of the report is in time units.
      Checkers only compare times, so a caller can certify in quanta
      and divide by [q] ({!unscale_operation}) only what it renders. *)

  val report_of_trace :
    model:Sim.Model.t ->
    algorithm:string ->
    check:bool ->
    ('msg, T.invocation, T.response) Sim.Trace.t ->
    report
  (** Summarize an existing trace (e.g. a hand-built or truncated one)
      from its sink snapshots, certified by the [Monitor] checker.  A
      bare trace does not know the offsets its run used, so the report
      takes its skew as admissible. *)

  val unhealthy : report -> string option
  (** The first clause of a healthy run the report fails, named:
      every operation completed ("N invocations never completed"),
      delays admissible ("delays left the model envelope"), skew
      admissible ("clock skew exceeded eps"), the run not truncated
      ("run truncated at the step limit").  [None] for a healthy run,
      allocating nothing. *)

  val ok : report -> bool
  (** A healthy run ({!unhealthy} is [None]) whose linearization was
      found. *)

  val order_finding : report -> string option
  (** [order_failure], rendered with the operations it names. *)

  val pp_report : Format.formatter -> report -> unit
end
