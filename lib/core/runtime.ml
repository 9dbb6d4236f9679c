(** End-to-end harness: build a cluster running a chosen algorithm,
    drive a workload through it, and distill the trace into a report —
    completed operations, a machine-checked linearization, and latency
    summaries per operation and per class.

    There is a single entry point, [run : Config.t -> report]: the
    [Config] record names every knob (checking, fault plan, step limit,
    reliable-channel leg, model, offsets, delay, algorithm, workload).
    A report is built from the trace's streaming sinks alone, so every
    engine is created with event retention off.  Sweep cells,
    fault-matrix legs and [repro simulate] reach it through one
    lowering, [Scenario.Exec.Run(T).config_of]. *)

(* The algorithm choice does not depend on the data type, so it lives
   outside the functor — the sweep engine enumerates algorithms without
   instantiating anything. *)
type algorithm = Wtlw of { x : Rat.t } | Centralized | Tob

let algorithm_name = function
  | Wtlw { x } -> Printf.sprintf "wtlw(X=%s)" (Rat.to_string x)
  | Centralized -> "centralized"
  | Tob -> "total-order-broadcast"

(* Which linearizability engine certifies the run.  [Monitor] routes
   through the per-type O(n log n) monitors ({!Monitor.Make}); a
   history no monitor decides is checked against the order the
   algorithm itself linearized in, and only when that order is refused
   does Wing-Gong run, so it is always a safe default.  [Wing_gong]
   forces the exponential DFS, kept as the independent oracle for
   cross-validation. *)
type checker = Monitor | Wing_gong

let checker_name = function Monitor -> "monitor" | Wing_gong -> "wing-gong"

module Make (T : Spec.Data_type.S) = struct
  module Sem = Spec.Data_type.Semantics (T)
  module Mon = Monitor.Make (T)
  module Checker = Mon.Fallback
  module Wtlw_impl = Wtlw.Make (T)
  module Centralized_impl = Centralized.Make (T)
  module Tob_impl = Tob.Make (T)

  type nonrec algorithm = algorithm = Wtlw of { x : Rat.t } | Centralized | Tob
  type nonrec checker = checker = Monitor | Wing_gong

  let algorithm_name = algorithm_name
  let checker_name = checker_name

  type workload =
    | Schedule of T.invocation Workload.entry list
    | Closed_loop of { per_proc : int; think : Rat.t; seed : int }
    | Paced of { next : proc:int -> (Rat.t * T.invocation) option }

  (* Description of the reliable channel a run was layered over, when
     [Config.channel] was set: the retransmission config, the inflated
     model the report was checked against, and the live channel
     counters. *)
  type channel = {
    config : Reliable.config;
    effective : Sim.Model.t;
    stats : Reliable.stats;
  }

  type report = {
    algorithm : string;
    operations : (T.invocation, T.response) Sim.Trace.operation list;
    linearization : (T.invocation, T.response) Sim.Trace.operation list option;
    by_op : (string * Metrics.summary) list;
    by_kind : (Spec.Op_kind.t * Metrics.summary) list;
    hist : Metrics.Hist.t;
    messages : int;
    events : int;
    pending : int;
    delays_admissible : bool;
    skew_admissible : bool;
    faults : Sim.Trace.fault_counts;
    truncated : bool;
    channel : channel option;
    checked_by : string option;
        (** which engine produced [linearization] ("wing-gong", a
            per-type monitor, "protocol-order", or a monitor-to-Wing-Gong
            fallback); [None] when checking was off *)
    order_failure : Monitor.order_failure option;
        (** why the checker refused the algorithm's own order, when it
            did (indices into [operations]) *)
    converged : bool option;
        (** for Wtlw runs: do all replicas hold equal states at
            quiescence?  [None] for the baselines (centralized and TOB
            keep no per-process replicas to compare) *)
  }

  module Config = struct
    type t = {
      check : bool;
      faults : Sim.Fault.plan;
      max_events : int option;
      max_check_nodes : int option;
      deadline : (unit -> bool) option;
      checker : checker;
      channel : Reliable.config option;
      timing : (Sim.Model.t -> x:Rat.t -> Wtlw.timing) option;
      model : Sim.Model.t;
      offsets : Rat.t array;
      delay : Sim.Net.t;
      algorithm : algorithm;
      workload : workload;
    }

    let make ?(check = true) ?(faults = Sim.Fault.none) ?max_events
        ?max_check_nodes ?deadline ?(checker = Monitor) ?channel ?timing
        ~model ~offsets ~delay ~algorithm ~workload () =
      {
        check;
        faults;
        max_events;
        max_check_nodes;
        deadline;
        checker;
        channel;
        timing;
        model;
        offsets;
        delay;
        algorithm;
        workload;
      }

    let reliable ?config cfg =
      {
        cfg with
        channel =
          Some
            (match config with
            | Some c -> c
            | None -> Reliable.default_config cfg.model);
      }
  end

  let kind_of inv = Sem.kind_of inv

  (* No report reads the event list: every field comes from the
     trace's streaming sinks. *)
  let retain_events = false

  (* The one certify path, shared by [run], [Shard]'s per-key loop and
     [repro check]: the per-type monitor, then the algorithm's own
     order [order] when the monitor does not decide, then Wing-Gong.
     [Wing_gong] is the independent oracle and never consults
     [order]. *)
  let certify ?max_nodes ?order ~checker arr =
    match checker with
    | Wing_gong -> Mon.wing_gong ?max_nodes arr None
    | Monitor -> Mon.check_array ?max_nodes ?order arr

  let checked_by (r : Mon.result) =
    match r.method_ with
    | Monitor.Wing_gong when Option.is_some r.fallback ->
        "monitor, fell back to wing-gong"
    | m -> Monitor.method_to_string m

  (* Drive one engine (of any algorithm) through the workload. *)
  let drive (type m g) ?max_events ?deadline ~(model : Sim.Model.t)
      (engine : (m, g, T.invocation, T.response) Sim.Engine.t) workload =
    (match workload with
    | Schedule entries ->
        List.iter
          (fun { Workload.proc; at; inv } ->
            Sim.Engine.schedule_invoke engine ~at ~proc inv)
          (Workload.sort_schedule entries)
    | Closed_loop { per_proc; think; seed } ->
        let rng = Random.State.make [| seed |] in
        let remaining = Array.make model.n per_proc in
        Sim.Engine.set_response_callback engine
          (fun ~proc ~inv:_ ~resp:_ ~time ->
            if remaining.(proc) > 0 then begin
              remaining.(proc) <- remaining.(proc) - 1;
              Sim.Engine.schedule_invoke engine ~at:(Rat.add time think) ~proc
                (T.gen_invocation rng)
            end);
        for proc = 0 to model.n - 1 do
          remaining.(proc) <- remaining.(proc) - 1;
          Sim.Engine.schedule_invoke engine
            ~at:(Rat.make proc (2 * model.n))
            ~proc (T.gen_invocation rng)
        done
    | Paced { next } ->
        (* Open loop with backpressure: each process holds at most one
           pending invocation; the next arrival is scheduled when the
           previous operation responds, clamped forward to the response
           time if the process fell behind its arrival stream. *)
        Sim.Engine.set_response_callback engine
          (fun ~proc ~inv:_ ~resp:_ ~time ->
            match next ~proc with
            | None -> ()
            | Some (at, inv) ->
                Sim.Engine.schedule_invoke engine ~at:(Rat.max at time) ~proc
                  inv);
        for proc = 0 to model.n - 1 do
          match next ~proc with
          | None -> ()
          | Some (at, inv) -> Sim.Engine.schedule_invoke engine ~at ~proc inv
        done);
    Sim.Engine.run ?max_events ?deadline engine

  (* The one report builder: certify [operations] when [check] is set,
     and read everything else off the trace's incremental sink
     snapshots — counters, pairing and admissibility are O(1) lookups,
     so no pass ever goes over raw events. *)
  let build_report ?max_nodes ?order ~checker ~check ~model ~algorithm
      ~skew_admissible ~truncated ~channel ~converged ~by_op ~by_kind ~hist
      trace operations =
    let linearization, checked_by, order_failure =
      if check then
        let r =
          certify ?max_nodes ?order ~checker (Array.of_list operations)
        in
        (r.Mon.linearization, Some (checked_by r), r.Mon.order_failure)
      else (None, None, None)
    in
    {
      algorithm;
      operations;
      linearization;
      checked_by;
      order_failure;
      by_op;
      by_kind;
      hist;
      messages = Sim.Trace.send_count trace;
      events = Sim.Trace.event_count trace;
      pending = Sim.Trace.pending_count trace;
      delays_admissible = Sim.Trace.delays_admissible model trace;
      skew_admissible;
      faults = Sim.Trace.fault_counts trace;
      truncated;
      channel;
      converged;
    }

  let report_of_trace ?(skew_admissible = true) ?(checker = Monitor) ~model
      ~algorithm ~check trace =
    let operations = Sim.Trace.operations trace in
    let hist = Metrics.Hist.create () in
    List.iter (fun op -> Metrics.Hist.add hist (Metrics.latency op)) operations;
    build_report ~checker ~check ~model ~algorithm ~skew_admissible
      ~truncated:false ~channel:None ~converged:None
      ~by_op:(Metrics.by_op ~op_of:T.op_of operations)
      ~by_kind:(Metrics.by_kind ~kind_of operations)
      ~hist trace operations

  (* Build the chosen algorithm, drive it through the workload and
     report.  Each algorithm supplies its handlers, the order it
     linearizes in and its convergence check once; the reliable leg
     only wraps the handlers in [Reliable.wrap] and judges the run —
     the algorithm's timing, the admissibility verdicts and the
     checker — against the inflated model [d' = d + retry budget] the
     channel implements (the "recovered" leg of the robustness
     matrix).  Latency summaries accumulate in [Metrics.Grouped] sinks
     as responses are recorded.  A run that hits the step limit is not
     lost: the sinks hold everything up to the truncation point, so the
     report is returned with [truncated = true]. *)
  let run_with_order (cfg : Config.t) =
    let { Config.model; offsets; delay; algorithm; workload; faults; _ } =
      cfg
    in
    let judged, name =
      match cfg.channel with
      | None -> (model, algorithm_name algorithm)
      | Some config ->
          ( Reliable.inflated_model ~extra_skew:(Sim.Fault.extra_skew faults)
              ~max_spike:(Sim.Fault.max_spike faults) config model,
            algorithm_name algorithm ^ "+reliable" )
    in
    (* [go] is polymorphic in the message and timer types, which the
       reliable channel changes. *)
    let go (type m g) ~order ~converged ~channel
        (handlers : (m, g, T.invocation, T.response) Sim.Engine.handlers) =
      let engine =
        Sim.Engine.create ~retain_events ~faults ~model:judged ~offsets ~delay
          ~handlers ()
      in
      let trace = Sim.Engine.trace engine in
      let by_op = Metrics.Grouped.create () in
      let by_kind = Metrics.Grouped.create () in
      let hist = Metrics.Hist.create () in
      Sim.Trace.on_operation trace (fun op ->
          let l = Metrics.latency op in
          Metrics.Grouped.add by_op (T.op_of op.inv) l;
          Metrics.Grouped.add by_kind (kind_of op.inv) l;
          Metrics.Hist.add hist l);
      (* A deadline expiry is deliberately NOT caught here: unlike the
         step limit (whose partial report is still meaningful), a wall
         budget means the caller wants the cell abandoned — the
         campaign layer turns the escaping [Sim.Engine.Deadline_exceeded]
         into a named [Cell_timeout] diagnostic, mirroring how
         [Lin.Checker.Node_budget_exceeded] is surfaced. *)
      let truncated =
        match
          drive ?max_events:cfg.max_events ?deadline:cfg.deadline
            ~model:judged engine workload
        with
        | () -> false
        | exception Sim.Engine.Step_limit_exceeded _ -> true
      in
      (* the algorithm's own order, over the clock offsets the run used;
         computed only if the checker asks for it *)
      let ran_offsets = Sim.Engine.effective_offsets engine in
      let order ops = order ~offsets:ran_offsets ops in
      ( build_report ?max_nodes:cfg.max_check_nodes ~order ~checker:cfg.checker
          ~check:cfg.check ~model:judged ~algorithm:name
          ~skew_admissible:(Sim.Model.skew_valid judged ran_offsets)
          ~truncated ~channel ~converged:(converged ())
          ~by_op:(Metrics.Grouped.summaries by_op)
          ~by_kind:(Metrics.Grouped.summaries by_kind)
          ~hist trace
          (Sim.Trace.operations trace),
        order )
    in
    let finish ~order ~converged handlers =
      match cfg.channel with
      | None -> go ~order ~converged ~channel:None handlers
      | Some config ->
          let handlers, stats = Reliable.wrap ~config ~n:judged.n handlers in
          go ~order ~converged
            ~channel:(Some { config; effective = judged; stats })
            handlers
    in
    match algorithm with
    | Wtlw { x } ->
        (* An explicit timing override (the ablation knobs) skips the
           X-validity check on purpose: the overridden timings are
           deliberately outside the sound envelope. *)
        let timing =
          match cfg.timing with
          | Some timing_of -> timing_of judged ~x
          | None ->
              if
                not
                  (Rat.in_range ~lo:Rat.zero ~hi:(Rat.sub judged.d judged.eps)
                     x)
              then
                invalid_arg
                  (match cfg.channel with
                  | None -> "Wtlw.create: X must lie in [0, d - eps]"
                  | Some _ -> "Runtime.run: X outside [0, d' - eps']");
              Wtlw.default_timing judged ~x
        in
        let states = Wtlw_impl.fresh_states ~n:judged.n in
        finish
          ~order:(Wtlw_impl.linearization ~timing)
          ~converged:(fun () -> Some (Wtlw_impl.states_converged states))
          (Wtlw_impl.protocol ~timing states)
    | Centralized ->
        let hub = Centralized_impl.fresh_hub () in
        finish
          ~order:(fun ~offsets:_ -> Centralized_impl.linearization hub)
          ~converged:(fun () -> None)
          (Centralized_impl.protocol hub)
    | Tob ->
        let states = Tob_impl.fresh_states ~n:judged.n in
        finish ~order:Tob_impl.linearization
          ~converged:(fun () -> None)
          (Tob_impl.protocol ~model:judged states)

  let run cfg = fst (run_with_order cfg)

  (* A run is accepted when every operation completed, the run was not
     truncated, delays and clock skew were admissible, and a
     linearization was found. *)
  let ok report =
    report.pending = 0
    && (not report.truncated)
    && report.delays_admissible
    && report.skew_admissible
    && Option.is_some report.linearization

  let order_finding r =
    Option.map
      (Format.asprintf "%a"
         (Mon.pp_order_failure (Array.of_list r.operations)))
      r.order_failure

  let pp_report ppf r =
    Format.fprintf ppf "@[<v>%s: %d operations, %d messages, %d events@,"
      r.algorithm
      (List.length r.operations)
      r.messages r.events;
    Format.fprintf ppf "linearizable: %b; delays admissible: %b; pending: %d@,"
      (Option.is_some r.linearization)
      r.delays_admissible r.pending;
    (match r.checked_by with
    | Some engine -> Format.fprintf ppf "checked by: %s@," engine
    | None -> ());
    (match order_finding r with
    | Some f -> Format.fprintf ppf "protocol order refused: %s@," f
    | None -> ());
    (match r.converged with
    | Some c -> Format.fprintf ppf "replicas converged: %b@," c
    | None -> ());
    (match Metrics.Hist.quantiles r.hist with
    | Some q -> Format.fprintf ppf "latency %a@," Metrics.Hist.pp_quantiles q
    | None -> ());
    if not r.skew_admissible then Format.fprintf ppf "skew: inadmissible@,";
    if r.truncated then Format.fprintf ppf "TRUNCATED (step limit)@,";
    if Sim.Trace.total_faults r.faults > 0 then
      Format.fprintf ppf
        "faults: %d dropped, %d duplicated, %d spiked, %d crashed, %d skewed@,"
        r.faults.dropped r.faults.duplicated r.faults.spiked r.faults.crashed
        r.faults.skewed;
    (match r.channel with
    | None -> ()
    | Some { config; effective; stats } ->
        Format.fprintf ppf
          "channel: rto=%a retries=%d d'=%a; %d sent, %d retransmits, %d \
           acked, %d dups suppressed, %d exhausted@,"
          Rat.pp config.rto config.max_retries Rat.pp effective.d stats.sent
          stats.retransmits stats.acked stats.duplicates stats.exhausted);
    List.iter
      (fun (op, s) ->
        Format.fprintf ppf "  %-16s %a@," op Metrics.pp_summary s)
      r.by_op;
    List.iter
      (fun (kind, s) ->
        Format.fprintf ppf "  [%s] %a@," (Spec.Op_kind.to_string kind)
          Metrics.pp_summary s)
      r.by_kind;
    Format.fprintf ppf "@]"
end
