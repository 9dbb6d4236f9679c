(* The executor: lower a scenario onto the [Runtime.Config] machinery,
   run it, and judge the result against the scenario's expectation and
   temporal predicate.

   [Run(T).run_report] is the one place in the library that lowers a
   scenario ([config_of]) and runs it: sweep cells ([Sweep.eval]),
   fault-matrix and ablation legs ([Scenario.run]) and [repro simulate]
   all describe their runs as scenarios and end here, and every way a
   run can end without a report is one named {!abort}.  [Run] is
   applied once per bundled type, when [Packed_type] is initialised;
   [Packed_type.run] dispatches a scenario to its type's instance.  The
   scenario seed drives delay sampling and workload generation, and
   nothing else is random. *)

open Types

let ( let* ) r f = Result.bind r f

(* What one run did, and whether it met the scenario's expectation.
   [passed] is the headline verdict; the rest is the evidence. *)
type outcome = {
  scenario : string;  (** the scenario's name *)
  passed : bool;  (** did the run meet [expect] (and [predicate])? *)
  certified : bool;  (** [Runtime.ok] and the predicate held *)
  ok : bool;  (** [Runtime.ok]: complete, admissible, linearizable *)
  linearizable : bool;
  converged : bool option;  (** replica convergence (Wtlw runs) *)
  predicate_holds : bool;
  operations : int;
  pending : int;
  messages : int;
  events : int;
  truncated : bool;
  delays_admissible : bool;
  skew_admissible : bool;
  faults : int;  (** total injected faults: [fault_counts] summed *)
  fault_counts : Sim.Trace.fault_counts;
  retransmits : int;  (** reliable-channel retransmissions (0 without it) *)
  exhausted : int;  (** payloads the reliable channel gave up on *)
  checked_by : string option;
  order_failure : string option;
      (** why the checker refused the algorithm's own linearization
          order, when it did (the operations it names) *)
  diagnostic : string option;
      (** named abort (node budget, bad config, ...); the run produced
          no report *)
  witness : string option;
      (** when certification failed: the first failing clause, in
          order — linearizability, convergence, pending, admissibility,
          truncation, predicate *)
  by_kind : (Spec.Op_kind.t * Rat.t) list;
      (** worst observed latency per operation class — the raw material
          for bound probing *)
  wall_s : float;
}

let passes o = o.passed

(* Every way a run can end without a report. *)
type abort =
  | Bad_scenario of string  (** [config_of] refused the scenario *)
  | Node_budget of { nodes : int; prefix : int; total : int }
      (** the checker's node budget ([max_check_nodes]) ran out *)
  | Deadline  (** the wall deadline passed *)
  | Invalid_run of string  (** the runtime refused the configuration *)
  | Overflow  (** a time left the exact [Rat] arithmetic's range *)

let abort_message = function
  | Bad_scenario e -> "bad scenario: " ^ e
  | Node_budget { nodes; _ } ->
      Printf.sprintf "node budget exceeded after %d nodes" nodes
  | Deadline -> "deadline exceeded"
  | Invalid_run m -> "invalid run: " ^ m
  | Overflow ->
      "time overflow: a time left the 63-bit range of Rat (Rat.Overflow)"

(* ------------------------------------------------------------------ *)
(* Lowering helpers shared across types                                *)

let delay_of (s : t) : Sim.Net.t =
  match s.delays with
  | Random_delays -> Sim.Net.random_model ~seed:s.seed s.model
  | Max_delays -> Sim.Net.max_delay_model s.model
  | Min_delays -> Sim.Net.min_delay_model s.model
  | Matrix m -> Sim.Net.matrix m

let runtime_algorithm = function
  | Wtlw { x; _ } -> Core.Runtime.Wtlw { x }
  | Centralized -> Core.Runtime.Centralized
  | Tob -> Core.Runtime.Tob

(* The ablation knob becomes a [Config.timing] override; the repaired
   default knob lowers to [None] so the validated [create] path runs. *)
let timing_override (s : t) =
  match s.algorithm with
  | Wtlw { knob = Core.Ablation.Paper; _ } -> None
  | Wtlw { knob; _ } ->
      Some (fun model ~x -> Core.Ablation.timing_of_knob model ~x knob)
  | Centralized | Tob -> None

(* A run that produced no report: a bad scenario or a named abort.  It
   passes only a [Diagnostic] expectation naming [msg]. *)
let aborted (s : t) ~wall_s msg =
  let passed =
    match s.expect with
    | Diagnostic sub ->
        (* substring match, so "node budget" matches the checker's
           full message *)
        let len = String.length sub in
        let n = String.length msg in
        len = 0
        || Seq.exists
             (fun i -> String.equal (String.sub msg i len) sub)
             (Seq.init (max 0 (n - len + 1)) Fun.id)
    | Certify | Violate -> false
  in
  {
    scenario = s.name;
    passed;
    certified = false;
    ok = false;
    linearizable = false;
    converged = None;
    predicate_holds = false;
    operations = 0;
    pending = 0;
    messages = 0;
    events = 0;
    truncated = false;
    delays_admissible = true;
    skew_admissible = true;
    faults = 0;
    fault_counts = Sim.Trace.no_faults;
    retransmits = 0;
    exhausted = 0;
    checked_by = None;
    order_failure = None;
    diagnostic = Some msg;
    witness = None;
    by_kind = [];
    wall_s;
  }

(* ------------------------------------------------------------------ *)
(* Per-type executor                                                   *)

module Run (T : Spec.Data_type.S) = struct
  module R = Core.Runtime.Make (T)

  (* [Sample] indexes the type's canonical samples for the operation;
     [Tagged] replays the same bounded draw the workload generators
     use, so a tagged reference names the injectively-tagged value
     (queue [(tagged enqueue 54)] is [Enqueue 55]). *)
  let resolve_op (r : op_ref) : (T.invocation, string) result =
    match r with
    | Sample { op; index } -> (
        match List.nth_opt (T.sample_invocations op) index with
        | Some inv -> Ok inv
        | None -> Error (Printf.sprintf "no sample invocation %s#%d" op index)
        | exception _ -> Error ("unknown operation " ^ op))
    | Tagged { op; tag } ->
        let rng = Random.State.make [| 0x5ce; tag |] in
        let rec draw attempts =
          if attempts = 0 then
            Error (Printf.sprintf "operation %s never drawn for tag %d" op tag)
          else
            let inv = T.gen_tagged rng ~tag in
            if String.equal (T.op_of inv) op then Ok inv
            else draw (attempts - 1)
        in
        draw 128

  let workload_of (s : t) : (R.workload, string) result =
    match s.workload with
    | Explicit entries ->
        let* entries =
          List.fold_right
            (fun { proc; at; op } acc ->
              let* acc = acc in
              let* inv = resolve_op op in
              Ok ({ Core.Workload.proc; at; inv } :: acc))
            entries (Ok [])
        in
        Ok (R.Schedule entries)
    | Closed_loop { per_proc; think } ->
        Ok (R.Closed_loop { per_proc; think; seed = s.seed })
    | Generated { arrival; zipf; keys; ops } -> (
        match
          Core.Workload.Gen.create ~arrival ~zipf ~keys ~ops ~seed:s.seed
            ~invocation:(fun rng ~key:_ ~seq -> T.gen_tagged rng ~tag:seq)
            ()
        with
        | gen ->
            let route =
              Core.Workload.Route.create ~procs:s.model.Sim.Model.n
                ~keep:(fun _ -> true)
                gen
            in
            Ok
              (R.Paced
                 {
                   route;
                   lift = (fun ~key:_ inv -> inv);
                   tick = Rat.make 1 Core.Workload.Gen.quantum;
                 })
        | exception Invalid_argument m -> Error ("generated workload: " ^ m))

  let config_of (s : t) : (R.Config.t, string) result =
    let* workload = workload_of s in
    let cfg =
      R.Config.make ~faults:s.faults ?max_events:s.max_events
        ?max_check_nodes:s.max_check_nodes ~checker:s.checker
        ?timing:(timing_override s) ~model:s.model ~offsets:s.offsets
        ~delay:(delay_of s)
        ~algorithm:(runtime_algorithm s.algorithm)
        ~workload ()
    in
    Ok (if s.reliable then R.Config.reliable cfg else cfg)

  (* ---------------------------------------------------------------- *)
  (* Predicate evaluation                                              *)

  let eval_state_atom ~completed (op : (T.invocation, T.response) Sim.Trace.operation)
      = function
    | Completed_ge k -> completed >= k
    | Latency_le t -> Rat.compare (Core.Metrics.latency op) t <= 0
    | Op_is name -> String.equal (T.op_of op.inv) name
    | Resp_by t -> Rat.compare op.resp_time t <= 0

  let eval_final (r : R.report) converged = function
    | Pending_le k -> r.pending <= k
    | Messages_le k -> r.messages <= k
    | Faults_le k -> Sim.Trace.total_faults r.faults <= k
    | Linearizable -> Option.is_some r.linearization
    | Converged -> ( match converged with Some b -> b | None -> true)

  (* Completed operations in response order (ties by process), the
     trace-state sequence the temporal operators quantify over. *)
  let observed_states (r : R.report) =
    List.stable_sort
      (fun (a : (T.invocation, T.response) Sim.Trace.operation) b ->
        match Rat.compare a.resp_time b.resp_time with
        | 0 -> compare a.proc b.proc
        | c -> c)
      r.operations

  let rec eval_pred (r : R.report) states converged = function
    | True -> true
    | Not p -> not (eval_pred r states converged p)
    | And (p, q) ->
        eval_pred r states converged p && eval_pred r states converged q
    | Or (p, q) ->
        eval_pred r states converged p || eval_pred r states converged q
    | Always a ->
        List.for_all
          (fun (i, op) -> eval_state_atom ~completed:(i + 1) op a)
          states
    | Eventually a ->
        List.exists
          (fun (i, op) -> eval_state_atom ~completed:(i + 1) op a)
          states
    | Finally a -> eval_final r converged a

  (* ---------------------------------------------------------------- *)
  (* Verdicts                                                          *)

  let witness_of (r : R.report) converged predicate_holds =
    if Option.is_none r.linearization then Some "history not linearizable"
    else if converged = Some false then Some "replicas diverged"
    else
      match R.unhealthy r with
      | None when not predicate_holds -> Some "temporal predicate violated"
      | failure -> failure

  let of_report (s : t) ~wall_s (r : R.report) =
    let converged = r.converged in
    let states = List.mapi (fun i op -> (i, op)) (observed_states r) in
    let predicate_holds = eval_pred r states converged s.predicate in
    let ok = R.ok r in
    let diverged = converged = Some false in
    let certified = ok && (not diverged) && predicate_holds in
    let witness =
      if certified then None else witness_of r converged predicate_holds
    in
    let passed =
      match s.expect with
      | Certify -> certified
      | Violate -> not certified
      | Diagnostic _ -> false
    in
    {
      scenario = s.name;
      passed;
      certified;
      ok;
      linearizable = Option.is_some r.linearization;
      converged;
      predicate_holds;
      operations = List.length r.operations;
      pending = r.pending;
      messages = r.messages;
      events = r.events;
      truncated = r.truncated;
      delays_admissible = r.delays_admissible;
      skew_admissible = r.skew_admissible;
      faults = Sim.Trace.total_faults r.faults;
      fault_counts = r.faults;
      retransmits =
        (match r.channel with
        | None -> 0
        | Some c -> c.stats.Core.Reliable.retransmits);
      exhausted =
        (match r.channel with
        | None -> 0
        | Some c -> c.stats.Core.Reliable.exhausted);
      checked_by = r.checked_by;
      order_failure = R.order_finding r;
      diagnostic = None;
      witness;
      by_kind =
        List.map (fun (k, su) -> (k, su.Core.Metrics.max)) r.by_kind;
      wall_s;
    }

  (* The one site that lowers and runs a scenario: every exception a
     lowering or a run can end in becomes a named {!abort}.  [deadline]
     is polled by the simulation loop. *)
  let run_report ?deadline (s : t) : (R.report, abort) result =
    match (match validate s with Ok () -> config_of s | Error e -> Error e) with
    | Error e -> Error (Bad_scenario e)
    | exception Rat.Overflow -> Error Overflow
    | Ok cfg -> (
        let cfg =
          match deadline with
          | None -> cfg
          | Some _ -> { cfg with R.Config.deadline }
        in
        match R.run cfg with
        | report -> Ok report
        | exception Lin.Checker.Node_budget_exceeded { nodes; prefix; total }
          ->
            Error (Node_budget { nodes; prefix; total })
        | exception Sim.Engine.Deadline_exceeded _ -> Error Deadline
        | exception Invalid_argument m -> Error (Invalid_run m)
        | exception Rat.Overflow -> Error Overflow)

  let run (s : t) =
    let t0 = Core.Clock.now_s () in
    let result = run_report s in
    let wall_s = Core.Clock.now_s () -. t0 in
    match result with
    | Ok report -> of_report s ~wall_s report
    | Error a -> aborted s ~wall_s (abort_message a)
end

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf "@[<v>scenario %s: %s@," o.scenario
    (if o.passed then "PASS" else "FAIL");
  (match o.diagnostic with
  | Some d -> Format.fprintf ppf "diagnostic: %s@," d
  | None ->
      Format.fprintf ppf
        "%d operations, %d messages, %d events; linearizable: %b; \
         predicate: %b@,"
        o.operations o.messages o.events o.linearizable o.predicate_holds;
      (match o.converged with
      | Some c -> Format.fprintf ppf "replicas converged: %b@," c
      | None -> ());
      (match o.checked_by with
      | Some c -> Format.fprintf ppf "checked by: %s@," c
      | None -> ());
      (match o.order_failure with
      | Some f -> Format.fprintf ppf "protocol order refused: %s@," f
      | None -> ());
      (match o.witness with
      | Some w -> Format.fprintf ppf "witness: %s@," w
      | None -> ()));
  Format.fprintf ppf "@]"

let json_of_outcome (o : outcome) =
  let open Core.Json in
  let str = nullable (fun s -> String s) in
  Object
    [ ("scenario", String o.scenario); ("passed", Bool o.passed);
      ("certified", Bool o.certified); ("linearizable", Bool o.linearizable);
      ("converged", nullable (fun c -> Bool c) o.converged);
      ("predicate", Bool o.predicate_holds); ("operations", Int o.operations);
      ("pending", Int o.pending); ("messages", Int o.messages);
      ("events", Int o.events); ("faults", Int o.faults);
      ("diagnostic", str o.diagnostic); ("witness", str o.witness);
      ("wall_s", Fixed (3, o.wall_s)) ]
