(** End-to-end harness: build a cluster running a chosen algorithm,
    drive a workload through it, and distill the trace into a report —
    completed operations, a machine-checked linearization, and latency
    summaries per operation and per class.

    There is a single entry point, [run : Config.t -> report]: the
    [Config] record names every knob (checking, fault plan, step limit,
    reliable-channel leg, model, offsets, delay, algorithm, workload).
    A report is built from the trace's streaming sinks alone, so every
    engine is created with event retention off.  Sweep cells,
    fault-matrix legs and [repro simulate] reach it through one site,
    [Scenario.Exec.Run(T).run_report].

    Time in a run is counted in one integer quantum.  [run] first
    computes everything the run reads in model units, takes the least
    common multiple [q] of their denominators, multiplies them all by
    [q], and runs the engine and the protocols on integers, which
    [Rat] carries unboxed.  It divides by [q] only where a time leaves
    the run: the report's operations, latency summaries and histogram.
    Scaling by a positive integer preserves every comparison and every
    tie in the event heap, so the run is the same run. *)

(* The algorithm choice does not depend on the data type, so it lives
   outside the functor — the sweep engine enumerates algorithms without
   instantiating anything. *)
type algorithm = Wtlw of { x : Rat.t } | Centralized | Tob

(* The algorithm's name followed by [suffix], written once. *)
let name_with algorithm ~suffix =
  match algorithm with
  | Wtlw { x } ->
      let b = Buffer.create 24 in
      Buffer.add_string b "wtlw(X=";
      Rat.add_to_buffer b x;
      Buffer.add_char b ')';
      Buffer.add_string b suffix;
      Buffer.contents b
  | Centralized -> "centralized" ^ suffix
  | Tob -> "total-order-broadcast" ^ suffix

let algorithm_name algorithm = name_with algorithm ~suffix:""

(* Which linearizability engine certifies the run.  [Monitor] routes
   through the per-type O(n log n) monitors ({!Monitor.Make}); a
   history no monitor decides is checked against the order the
   algorithm itself linearized in, and only when that order is refused
   does Wing-Gong run, so it is always a safe default.  [Wing_gong]
   forces the exponential DFS, kept as the independent oracle for
   cross-validation. *)
type checker = Monitor | Wing_gong

let checker_name = function Monitor -> "monitor" | Wing_gong -> "wing-gong"

(* An operation whose times count quanta of [1/q], in time units. *)
let unscale_operation q (op : ('i, 'r) Sim.Trace.operation) =
  if q = 1 then op
  else
    {
      op with
      inv_time = Rat.div_int op.inv_time q;
      resp_time = Rat.div_int op.resp_time q;
    }

(* The order an algorithm linearized a run in, as data: Algorithm 1's
   timing and the clock offsets the run used, the offsets alone for
   the total-order baseline, or the coordinator's apply log.  Offsets
   count quanta of [1/per] of the operations' time unit.  Any instance
   of [Make] reads it over a history of its own type
   ([Make.order_of]), so a sharded run reads each key's order over
   that key's projected history. *)
type protocol_order =
  | Algorithm_1 of { timing : Wtlw.timing; offsets : Rat.t array; per : int }
  | Broadcast of { offsets : Rat.t array; per : int }
  | Applies of Centralized.log

(* The run's quantum: the least common multiple of the denominators of
   every time it reads, refused by name when it does not fit in an
   int. *)
let lcm q d =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let k = d / gcd q d in
  if q > max_int / k then
    invalid_arg
      "Runtime.run: unrepresentable time quantum: the least common multiple \
       of the run's time denominators does not fit in an int"
  else q * k

(* What a run's times give its quantum: the lcm of their denominators,
   and the largest of them for the horizon. *)
type extent = { mutable q : int; mutable top : Rat.t }

let note s t =
  s.q <- lcm s.q (Rat.den t);
  s.top <- Rat.max s.top (Rat.abs t)

let unrepresentable_horizon detail =
  invalid_arg ("Runtime.run: unrepresentable time horizon: " ^ detail)

(* Refuse a run whose last event could lie beyond int quanta.  Every
   event comes at most one delay plus one spike margin, or one timer
   (a wait, a retransmission timeout, the total-order horizon plus a
   clock offset), after the event that scheduled it, and no such step
   exceeds twice the largest time [top] the run reads; explicit
   invocations come at times among those.  So chains of at most
   [chain] events end by [(2 * chain + 1) * top]. *)
let check_horizon ~q ~chain top =
  match
    let top = Rat.mul_int top q in
    Rat.add (Rat.mul_int (Rat.mul_int top 2) chain) top
  with
  | _ -> ()
  | exception Rat.Overflow ->
      unrepresentable_horizon
        (Printf.sprintf
           "%d successive events of up to %s time units each do not fit in \
            int quanta of 1/%d"
           chain
           (Rat.to_string (Rat.mul_int top 2))
           q)

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

  type workload =
    | Schedule of T.invocation Workload.entry list
    | Closed_loop of { per_proc : int; think : Rat.t; seed : int }
    | Paced : {
        route : 'inv Workload.Route.t;
        lift : key:int -> 'inv -> T.invocation;
        tick : Rat.t;
      }
        -> workload

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
    linearization : int array option;
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
        ?max_check_nodes ?(checker = Monitor) ?timing ~model ~offsets ~delay
        ~algorithm ~workload () =
      {
        check;
        faults;
        max_events;
        max_check_nodes;
        deadline = None;
        checker;
        channel = None;
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
    | Wing_gong -> Mon.wing_gong ?max_nodes arr
    | Monitor -> Mon.check_array ?max_nodes ?order arr

  let order_of order ~key ops =
    match order with
    | Algorithm_1 { timing; offsets; per } ->
        Wtlw_impl.linearization ~timing ~offsets ~per ops
    | Broadcast { offsets; per } -> Tob_impl.linearization ~offsets ~per ops
    | Applies log -> Centralized_impl.linearization log ~key ops

  let checked_by (r : Mon.result) =
    match r.method_ with
    | Monitor.Wing_gong when Option.is_some r.fallback ->
        "monitor, fell back to wing-gong"
    | m -> Monitor.method_to_string m

  (* Drive one engine (of any algorithm) through the workload, whose
     times are in model units: each reaches the engine multiplied by
     the run's quantum [q]. *)
  let drive (type m g) ?max_events ?deadline ~n ~q
      (engine : (m, g, T.invocation, T.response) Sim.Engine.t) workload =
    let in_quanta t = if q = 1 then t else Rat.mul_int t q in
    (match workload with
    | Schedule entries ->
        List.iter
          (fun { Workload.proc; at; inv } ->
            Sim.Engine.schedule_invoke engine ~at:(in_quanta at) ~proc inv)
          (Workload.sort_schedule entries)
    | Closed_loop { per_proc; think; seed } ->
        let think = in_quanta think in
        let rng = Random.State.make [| seed |] in
        let remaining = Array.make n per_proc in
        Sim.Engine.set_response_callback engine
          (fun ~proc ~inv:_ ~resp:_ ~time ->
            if remaining.(proc) > 0 then begin
              remaining.(proc) <- remaining.(proc) - 1;
              Sim.Engine.schedule_invoke engine ~at:(Rat.add time think) ~proc
                (T.gen_invocation rng)
            end);
        if per_proc > 0 then
          for proc = 0 to n - 1 do
            remaining.(proc) <- remaining.(proc) - 1;
            Sim.Engine.schedule_invoke engine
              ~at:(Rat.make (proc * q) (2 * n))
              ~proc (T.gen_invocation rng)
          done
    | Paced { route; lift; tick } ->
        (* Open loop with backpressure: each process holds at most one
           pending invocation; the next arrival is popped from the
           route when the previous operation responds, clamped forward
           to the response time if the process fell behind its arrival
           stream.  An arrival counts route ticks, [k] run quanta each:
           [setup] noted [tick], so [k] is whole. *)
        let k = Rat.num (Rat.mul_int tick q) in
        let arrival at =
          if at > max_int / k then
            unrepresentable_horizon
              (Printf.sprintf
                 "an arrival at %d ticks of %s time units does not fit in \
                  int quanta of 1/%d"
                 at (Rat.to_string tick) q);
          Rat.of_int (at * k)
        in
        let invoke ~proc ~time =
          let i = Workload.Route.pop route ~proc in
          if i >= 0 then
            Sim.Engine.schedule_invoke engine
              ~at:(Rat.max (arrival (Workload.Route.quanta route ~proc i)) time)
              ~proc
              (lift
                 ~key:(Workload.Route.key route ~proc i)
                 (Workload.Route.inv route ~proc i))
        in
        Sim.Engine.set_response_callback engine
          (fun ~proc ~inv:_ ~resp:_ ~time -> invoke ~proc ~time);
        for proc = 0 to n - 1 do
          invoke ~proc ~time:Rat.zero
        done);
    Sim.Engine.run ?max_events ?deadline engine

  (* The one report builder: certify [operations] when [check] is set,
     and read everything else off the trace's incremental sink
     snapshots — counters, pairing and admissibility are O(1) lookups,
     so no pass ever goes over raw events. *)
  let build_report ?max_nodes ?order ~checker ~check ~model ~algorithm
      ~skew_admissible ~truncated ~channel ~converged ~by_op ~by_kind ~hist
      trace ops =
    let linearization, checked_by, order_failure =
      if check then
        let r = certify ?max_nodes ?order ~checker ops in
        (r.Mon.linearization, Some (checked_by r), r.Mon.order_failure)
      else (None, None, None)
    in
    {
      algorithm;
      operations = Array.to_list ops;
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

  let report_of_trace ~model ~algorithm ~check trace =
    let ops = Sim.Trace.operation_array trace in
    let operations = Array.to_list ops in
    let hist = Metrics.Hist.create () in
    List.iter (fun op -> Metrics.Hist.add hist (Metrics.latency op)) operations;
    build_report ~checker:Monitor ~check ~model ~algorithm
      ~skew_admissible:true ~truncated:false ~channel:None ~converged:None
      ~by_op:(Metrics.by_op ~op_of:T.op_of operations)
      ~by_kind:(Metrics.by_kind ~kind_of operations)
      ~hist trace ops

  (* The model a run is judged against, in model units: the inflated
     model [d' = d + retry budget] the reliable channel implements, or
     the configured one. *)
  let judged_model (cfg : Config.t) =
    match cfg.channel with
    | None -> cfg.model
    | Some config ->
        Reliable.inflated_model
          ~extra_skew:(Sim.Fault.extra_skew cfg.faults)
          ~max_spike:(Sim.Fault.max_spike cfg.faults)
          config cfg.model

  (* Algorithm 1's five waits, in model units.  An explicit timing
     override (the ablation knobs) skips the X-validity check on
     purpose: the overridden timings are deliberately outside the sound
     envelope. *)
  let wtlw_timing (cfg : Config.t) ~(judged : Sim.Model.t) ~x =
    match cfg.timing with
    | Some timing_of -> timing_of judged ~x
    | None ->
        (match Wtlw.check_x judged x with
        | Ok () -> ()
        | Error msg ->
            invalid_arg
              (match cfg.channel with
              | None -> "Wtlw.create: " ^ msg
              | Some _ -> "Runtime.run: " ^ msg ^ " of the inflated model"));
        Wtlw.default_timing judged ~x

  (* Note every time the run reads, in model units. *)
  let note_times (cfg : Config.t) ~(judged : Sim.Model.t) ~timing s =
    note s judged.d;
    note s judged.u;
    note s judged.eps;
    Array.iter (fun t -> note s t) cfg.offsets;
    ignore (Sim.Net.fold (fun t s -> note s t; s) cfg.delay s);
    List.iter
      (function
        | Sim.Fault.Spike { margin = t; _ }
        | Crash { at = t; _ }
        | Skew { offset = t; _ } ->
            note s t
        | Drop _ | Duplicate _ -> ())
      cfg.faults.specs;
    Option.iter (fun (c : Reliable.config) -> note s c.rto) cfg.channel;
    (match timing with
    | Some (t : Wtlw.timing) ->
        note s t.accessor_wait;
        note s t.accessor_backdate;
        note s t.mutator_ack_wait;
        note s t.add_wait;
        note s t.execute_wait
    | None -> ());
    (match cfg.algorithm with Wtlw { x } -> note s x | Centralized | Tob -> ());
    match cfg.workload with
    | Schedule entries ->
        List.iter (fun (e : _ Workload.entry) -> note s e.at) entries
    | Closed_loop { think; _ } ->
        note s think;
        (* first invocations at multiples of 1/(2n), all below 1/2 *)
        s.q <- lcm s.q (2 * judged.n)
    | Paced { tick; _ } ->
        if Rat.sign tick <= 0 then invalid_arg "Runtime.run: Paced tick <= 0";
        note s tick

  (* The longest chain of events, each scheduled by the one before
     (DESIGN, "The time horizon").  Nothing schedules a schedule's
     invocations, and each algorithm follows one with at most two
     message hops and one more event; a hop is one event raw and at
     most [max_retries + 1] on the reliable channel.  Loops invoke
     from responses, so only the step limit bounds their chains. *)
  let chain (cfg : Config.t) =
    let limit =
      Option.value cfg.max_events ~default:Sim.Engine.default_max_events
    in
    match (cfg.workload, cfg.channel) with
    | Schedule _, None -> min limit 3
    | Schedule _, Some c -> min limit ((2 * c.max_retries) + 3)
    | (Closed_loop _ | Paced _), _ -> limit

  (* Everything a run is set up from, in model units, and its quantum:
     the judged model, Algorithm 1's timing, and [q], refused by name
     when it or the run's horizon in quanta does not fit in an int. *)
  let setup (cfg : Config.t) =
    let judged = judged_model cfg in
    let timing =
      match cfg.algorithm with
      | Wtlw { x } -> Some (wtlw_timing cfg ~judged ~x)
      | Centralized | Tob -> None
    in
    let s = { q = 1; top = Rat.zero } in
    note_times cfg ~judged ~timing s;
    check_horizon ~q:s.q ~chain:(chain cfg) s.top;
    (judged, timing, s.q)

  let quantum cfg =
    let _, _, q = setup cfg in
    q

  (* Build the chosen algorithm, drive it through the workload and
     report.  The run is set up in model units, then everything it
     reads is multiplied by its quantum [q], so the engine, the
     protocols and the reliable channel see integer times.  Each
     algorithm supplies its handlers, the order it linearizes in and
     its convergence check once; the reliable leg only wraps the
     handlers in [Reliable.wrap] and judges the run — the algorithm's
     timing, the admissibility verdicts and the checker — against the
     inflated model [d' = d + retry budget] the channel implements
     (the "recovered" leg of the robustness matrix).  Latency
     summaries accumulate in [Metrics.Grouped] sinks as responses are
     recorded.  A run that hits the step limit is not
     lost: the sinks hold everything up to the truncation point, so the
     report is returned with [truncated = true].

     [handover = (key_of, deal)]: hand each completed operation to
     [deal] as it completes, keep none, and leave the report's
     [operations] empty; leave the operations, the latencies the sinks
     see and the order in quanta, and divide only the summaries;
     [key_of] names the key each operation is on, which the order of a
     centralized run tells apart.  Otherwise the trace pairs each
     operation in model units, everything downstream of it stays in
     them, and the run is one key. *)
  let run_at ?handover (cfg : Config.t) =
    let in_quanta = Option.is_some handover in
    let { Config.offsets; delay; algorithm; workload; faults; _ } = cfg in
    let judged, timing, q = setup cfg in
    let name =
      name_with algorithm
        ~suffix:(match cfg.channel with None -> "" | Some _ -> "+reliable")
    in
    let in_q t = if q = 1 then t else Rat.mul_int t q in
    let model_q =
      if q = 1 then judged
      else
        Sim.Model.make ~n:judged.n ~d:(in_q judged.d) ~u:(in_q judged.u)
          ~eps:(in_q judged.eps)
    in
    let faults_q =
      if q = 1 || faults.specs = [] then faults
      else
        {
          faults with
          specs =
            List.map
              (function
                | Sim.Fault.Spike sp ->
                    Sim.Fault.Spike { sp with margin = in_q sp.margin }
                | Crash c -> Crash { c with at = in_q c.at }
                | Skew sk -> Skew { sk with offset = in_q sk.offset }
                | (Drop _ | Duplicate _) as spec -> spec)
              faults.specs;
        }
    in
    (* [go] is polymorphic in the message and timer types, which the
       reliable channel changes. *)
    let go (type m g) ~order ~converged ~channel
        (handlers : (m, g, T.invocation, T.response) Sim.Engine.handlers) =
      let engine =
        Sim.Engine.create ~retain_events ~faults:faults_q ~model:model_q
          ~offsets:(Array.map in_q offsets)
          ~delay:(if q = 1 then delay else Sim.Net.scale q delay)
          ~handlers ()
      in
      let trace = Sim.Engine.trace engine in
      let by_op = Metrics.Grouped.create () in
      let by_kind = Metrics.Grouped.create () in
      (* The operations, and the latencies the sinks see, are in
         quanta of [1/op_quantum]: time units unless the caller
         certifies in quanta. *)
      let op_quantum = if in_quanta then q else 1 in
      Sim.Trace.set_operation_quantum trace (q / op_quantum);
      let hist = Metrics.Hist.create ~quantum:op_quantum () in
      (match handover with
      | Some (_, deal) -> Sim.Trace.hand_over trace deal
      | None -> ());
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
          drive ?max_events:cfg.max_events ?deadline:cfg.deadline ~n:judged.n
            ~q engine workload
        with
        | () -> false
        | exception Sim.Engine.Step_limit_exceeded _ -> true
      in
      Sim.Engine.release engine;
      (* the algorithm's own order, over the clock offsets the run used
         in quanta, [per] of them to the operations' time unit; read
         only if the checker asks for it *)
      let ran_offsets = Sim.Engine.effective_offsets engine in
      let order =
        order ~offsets:ran_offsets ~per:(if in_quanta then 1 else q)
      in
      Metrics.Hist.settle hist;
      let summaries g = Metrics.Grouped.summaries ~quantum:op_quantum g in
      ( build_report ?max_nodes:cfg.max_check_nodes
          ~order:(fun ops -> order_of order ~key:0 ops)
          ~checker:cfg.checker ~check:cfg.check ~model:model_q ~algorithm:name
          ~skew_admissible:(Sim.Model.skew_valid model_q ran_offsets)
          ~truncated ~channel ~converged:(converged ()) ~by_op:(summaries by_op)
          ~by_kind:(summaries by_kind) ~hist trace
          (if in_quanta then [||] else Sim.Trace.operation_array trace),
        order,
        q )
    in
    let finish ~order ~converged handlers =
      match cfg.channel with
      | None -> go ~order ~converged ~channel:None handlers
      | Some config ->
          let handlers, stats =
            Reliable.wrap
              ~config:{ config with rto = in_q config.rto }
              ~n:judged.n handlers
          in
          go ~order ~converged
            ~channel:(Some { config; effective = judged; stats })
            handlers
    in
    match (algorithm, timing) with
    | Wtlw _, Some timing ->
        let timing_q =
          if q = 1 then timing
          else
            {
              Wtlw.accessor_wait = in_q timing.accessor_wait;
              accessor_backdate = in_q timing.accessor_backdate;
              mutator_ack_wait = in_q timing.mutator_ack_wait;
              add_wait = in_q timing.add_wait;
              execute_wait = in_q timing.execute_wait;
            }
        in
        let states = Wtlw_impl.fresh_states ~n:judged.n in
        finish
          ~order:(fun ~offsets ~per ->
            Algorithm_1
              {
                timing = (if in_quanta then timing_q else timing);
                offsets;
                per;
              })
          ~converged:(fun () -> Some (Wtlw_impl.states_converged states))
          (Wtlw_impl.protocol ~timing:timing_q states)
    | Centralized, _ ->
        let hub =
          Centralized_impl.fresh_hub ?key_of:(Option.map fst handover)
            ~n:judged.n ()
        in
        finish
          ~order:(fun ~offsets:_ ~per:_ ->
            Applies (Centralized_impl.log hub))
          ~converged:(fun () -> None)
          (Centralized_impl.protocol hub)
    | Tob, _ ->
        let states = Tob_impl.fresh_states ~n:judged.n in
        finish
          ~order:(fun ~offsets ~per -> Broadcast { offsets; per })
          ~converged:(fun () -> None)
          (Tob_impl.protocol ~model:model_q states)
    | Wtlw _, None -> assert false

  let run_with_order cfg =
    let report, order, _ = run_at cfg in
    (report, fun ops -> order_of order ~key:0 ops)

  let run_in_quanta ~key_of ~deal cfg =
    run_at ~handover:(key_of, deal) { cfg with Config.check = false }

  let run cfg =
    let report, _, _ = run_at cfg in
    report

  let unhealthy r =
    if r.pending > 0 then
      Some (Printf.sprintf "%d invocations never completed" r.pending)
    else if not r.delays_admissible then Some "delays left the model envelope"
    else if not r.skew_admissible then Some "clock skew exceeded eps"
    else if r.truncated then Some "run truncated at the step limit"
    else None

  let ok report =
    Option.is_some report.linearization && Option.is_none (unhealthy report)

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
      Format.fprintf ppf "%a@," Sim.Trace.pp_faults r.faults;
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
