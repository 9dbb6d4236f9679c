(* repro: command-line front end for the library.

     repro tables      — print Tables 1-5 at a model point, every row measured
     repro simulate    — run a workload on a chosen data type/algorithm
     repro load        — drive a generated workload through the sharded runtime
     repro sweep       — run a multicore campaign over the full grid
     repro check       — certify a generated history with a per-type monitor
     repro analyze     — run the static-analysis audit passes
     repro classify    — print the discovered operation classes (Fig. 11)
     repro claims      — machine-check the proofs' claims; Figs. 1-10
     repro ablate      — run the timing-ablation harness
     repro faults      — run the fault-injection robustness matrix
     repro bench       — run the deterministic perf suite / regression gate
     repro finding     — demonstrate the accessor-wait counterexample
     repro scenario    — run/generate/shrink declarative scenario files

   All durations are exact rationals, written as "3", "7/2", ...
   Shared flag definitions live in [Cli_common]. *)

open Cmdliner
open Cli_common

(* ---------------- tables ---------------- *)

let tables_cmd =
  let run n d u eps x =
    match
      Result.bind (model_and_x n d u eps x) (fun (model, x) ->
          named_overflow (fun () ->
              Result.map
                (fun tables -> (model, x, tables))
                (Sweep.measure_tables model ~x)))
    with
    | Error msg -> `Error (false, msg)
    | Ok (model, x, tables) ->
        Format.printf "model: %a, X = %a@." Sim.Model.pp model Rat.pp x;
        List.iter
          (fun table -> Format.printf "@.%a@." Sweep.pp_measured_table table)
          tables;
        let outside =
          List.concat_map
            (fun (t : Sweep.measured_table) ->
              List.filter
                (fun (m : Sweep.measured_row) -> not m.within)
                t.measured)
            tables
        in
        if outside = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d row(s) measured outside their bounds"
                (List.length outside) )
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Print the paper's Tables 1-5 for a given model, each row beside \
          the worst case that Algorithm 1, the centralized and the TOB \
          baselines reach on it in a small campaign (every table type x \
          random, all-max and all-min delays x two seeds).  Exits nonzero \
          unless Algorithm 1's worst case lies within every row's bounds.")
    Term.(ret (const run $ n_arg $ d_arg $ u_arg $ eps_arg $ x_arg))

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let run n d u eps x algo seed ops checker pt =
    match model_and_x n d u eps x with
    | Error msg -> `Error (false, msg)
    | Ok (model, x) ->
    let (module E : Sweep.Packed_type.RUNNER) = Sweep.Packed_type.runner pt in
    let algorithm =
      match algo with
      | `Wtlw -> Scenario.Wtlw { x; knob = Core.Ablation.Paper }
      | `Centralized -> Scenario.Centralized
      | `Tob -> Scenario.Tob
    in
    (* The flags describe a scenario, run like every other run. *)
    let s =
      Scenario.make ~dt:(Sweep.Packed_type.key pt) ~model ~checker ~algorithm
        ~workload:
          (Scenario.Closed_loop { per_proc = ops; think = Rat.make 1 2 })
        ~seed ()
    in
    match E.run_report s with
    | Error a -> `Error (false, Scenario.Exec.abort_message a)
    | Ok report ->
    Format.printf "model: %a, X = %a, data type: %s@.@." Sim.Model.pp model
      Rat.pp x E.T.name;
    Format.printf "%a@." E.R.pp_report report;
    (* Exit nonzero on any failed verification — truncation, pending
       operations, inadmissible delays or skew, or no linearization — so
       CI can gate on simulation outcomes. *)
    if E.R.ok report then `Ok ()
    else
      `Error
        ( false,
          "run failed verification (pending operations, truncation, \
           inadmissible delays/skew, or no linearization)" )
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run a closed-loop workload on a linearizable shared object and \
          report latencies plus the machine-checked linearization.")
    Term.(
      ret
        (const run $ n_arg $ d_arg $ u_arg $ eps_arg $ x_arg $ algo_arg
       $ seed_arg $ ops_arg $ checker_arg $ type_arg))

(* ---------------- load ---------------- *)

(* Sharded load: generate an open-loop arrival stream over a Zipf
   keyspace, partition it across N independent clusters, certify each
   key's projection with the per-type monitors, and report per-shard
   plus aggregate tail quantiles. *)

(* Wing-Gong node budget per key: a key whose search exceeds it is
   reported uncertified by name instead of exhausting memory. *)
let load_max_check_nodes = 200_000

let load_cmd =
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N" ~doc:"Number of independent shard clusters.")
  in
  let total_ops_arg =
    Arg.(
      value & opt int 10_000
      & info [ "ops" ] ~docv:"OPS"
          ~doc:"Total operations generated across all shards.")
  in
  let keys_arg =
    Arg.(
      value & opt int 64
      & info [ "keys" ] ~docv:"K"
          ~doc:"Keyspace size; keys are routed to shards by key mod shards.")
  in
  let arrival_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("poisson", `Poisson); ("bursty", `Bursty); ("diurnal", `Diurnal) ])
          `Poisson
      & info [ "arrival" ] ~docv:"PROCESS"
          ~doc:"Arrival process: $(b,poisson), $(b,bursty) or $(b,diurnal).")
  in
  let rate_arg =
    Arg.(
      value & opt rat_conv Rat.one
      & info [ "rate" ] ~docv:"R"
          ~doc:"Arrival rate in operations per simulated time unit.")
  in
  let period_arg =
    Arg.(
      value
      & opt rat_conv (Rat.of_int 1000)
      & info [ "period" ] ~docv:"P" ~doc:"Diurnal day length (time units).")
  in
  let trough_arg =
    Arg.(
      value
      & opt rat_conv (Rat.make 1 5)
      & info [ "trough" ] ~docv:"F"
          ~doc:
            "Diurnal trough intensity as a fraction of the peak, in (0,1]: \
             at 0 the gap drawn at the trough is infinite, and the run is \
             refused as an unrepresentable arrival gap.")
  in
  let burst_arg =
    Arg.(
      value & opt int 8
      & info [ "burst" ] ~docv:"B" ~doc:"Burst size for the bursty process.")
  in
  let zipf_arg =
    Arg.(
      value & opt float 1.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf key-skew exponent (0 = uniform keys).")
  in
  let faults_arg =
    Arg.(
      value & opt string "none"
      & info [ "faults" ] ~docv:"PLAN"
          ~doc:
            "Injected fault plan, e.g. \"drop=0.05,dup=0.01,spike=0.1\"; \
             $(b,none) disables injection.")
  in
  let reliable_arg =
    Arg.(
      value & flag
      & info [ "reliable" ]
          ~doc:
            "Run each shard over the ack/retransmit channel, judged against \
             the inflated model — the way to stay certified under message \
             drops.")
  in
  let resume_arg = resume_arg ~unit_:"shard report" in
  let run n d u eps x algo seed jobs checker pt shards ops keys arrival rate
      period trough burst zipf faults_s reliable json resume_dir journal_sync =
    match model_and_x n d u eps x with
    | Error msg -> `Error (false, msg)
    | Ok (model, x) ->
    let algorithm =
      match algo with
      | `Wtlw -> Core.Runtime.Wtlw { x }
      | `Centralized -> Core.Runtime.Centralized
      | `Tob -> Core.Runtime.Tob
    in
    let arrival =
      match arrival with
      | `Poisson -> Core.Workload.Poisson { rate }
      | `Bursty -> Core.Workload.Bursty { rate; size = burst }
      | `Diurnal -> Core.Workload.Diurnal { rate; period; trough }
    in
    match parse_fault_plan ~model faults_s with
    | Error msg -> `Error (false, msg)
    | Ok faults -> (
        match
          Shard.Config.make ~keys ~zipf ~faults ~checker
            ~max_check_nodes:load_max_check_nodes ~seed ~shards ~ops ~arrival
            ~model ~algorithm ()
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | cfg ->
            let cfg = if reliable then Shard.Config.reliable cfg else cfg in
            Sweep.Pool.Interrupt.install ();
            let t =
              Shard.run ~jobs
                ~should_stop:Sweep.Pool.Interrupt.requested
                ?journal_dir:resume_dir ~sync_every:journal_sync cfg pt
            in
            if json then print_json (Shard.to_json t)
            else Format.printf "%a@." Shard.pp t;
            let all_done =
              Array.for_all
                (function Sweep.Pool.Done _ -> true | _ -> false)
                t.Shard.reports
            in
            if t.Shard.interrupted then
              `Error
                ( false,
                  match resume_dir with
                  | Some dir ->
                      Printf.sprintf
                        "load interrupted; journaled shards kept — resume \
                         with: repro load --resume %s"
                        dir
                  | None ->
                      "load interrupted; partial results above are not \
                       journaled (pass --resume DIR for a resumable run)" )
            else if
              (* Fault-free runs must certify; with injected faults a
                 flagged run is the expected outcome, so only shard
                 failures (a crashed evaluation, not a failed
                 certification) are fatal. *)
              t.Shard.certified
              || ((not (Sim.Fault.is_none faults)) && all_done)
            then `Ok ()
            else `Error (false, "load run failed certification"))
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Drive a generated open-loop workload (Poisson/bursty/diurnal \
          arrivals, Zipf keys) through N independent shard clusters, certify \
          every key's projection, and print per-shard and aggregate \
          p50/p99/p999 latency quantiles.  Exits nonzero if a fault-free run \
          is not certified, or any shard evaluation dies.")
    Term.(
      ret
        (const run $ n_arg $ d_arg $ u_arg $ eps_arg $ x_arg $ algo_arg
       $ seed_arg $ jobs_arg $ checker_arg $ type_arg $ shards_arg
       $ total_ops_arg $ keys_arg $ arrival_arg $ rate_arg $ period_arg
       $ trough_arg $ burst_arg $ zipf_arg $ faults_arg $ reliable_arg
       $ json_flag $ resume_arg $ journal_sync_arg))

(* ---------------- check ---------------- *)

(* Certify a generated concurrent history with the per-type monitor —
   the direct harness for the O(n log n) path, without a simulated
   cluster in the loop.  The generator produces seed-deterministic,
   linearizable-by-construction histories; [--inject-violation] swaps
   two responses so the verdict must flip.  Exits nonzero whenever the
   verdict disagrees with what was constructed. *)

let check_cmd =
  let count_arg =
    Arg.(
      value & opt non_negative 10_000
      & info [ "n"; "ops" ] ~docv:"OPS"
          ~doc:"Number of operations in the generated history.")
  in
  let inject_arg =
    Arg.(
      value & flag
      & info [ "inject-violation" ]
          ~doc:
            "Swap the responses of two same-shaped observations before \
             checking, so the history contradicts the declared type; the \
             command then exits zero only if the violation is caught.")
  in
  let json_arg =
    json_path_arg ~doc:"Append a one-line JSON record of the verdict to $(docv)."
  in
  let run pt count seed checker inject json_path scenario =
    (* A scenario pins the history's shape: its data type, seed,
       checker and invocation count replace the individual flags. *)
    let resolved =
      match scenario with
      | None -> Ok (pt, count, seed, checker)
      | Some ref_ -> (
          match load_scenario ref_ with
          | Error msg -> Error msg
          | Ok s ->
              let pt =
                Option.value
                  (Sweep.Packed_type.find s.Scenario.dt)
                  ~default:pt
              in
              Ok
                ( pt,
                  max 1 (Scenario.invocations s),
                  s.Scenario.seed,
                  s.Scenario.checker ))
    in
    match resolved with
    | Error msg -> `Error (false, msg)
    | Ok (pt, count, seed, checker) ->
    let (module E : Sweep.Packed_type.RUNNER) = Sweep.Packed_type.runner pt in
    let module T = E.T in
    let module M = E.R.Mon in
    match Monitor.monitored_kind (module T) with
    | None ->
        let monitored =
          List.filter
            (fun pt ->
              Monitor.monitored_kind (Sweep.Packed_type.modl pt) <> None)
            Sweep.Packed_type.all
        in
        `Error
          ( false,
            Printf.sprintf
              "%s declares no monitor viewer, so it has no history \
               generator; monitored types: %s"
              T.name
              (String.concat ", "
                 (List.map Sweep.Packed_type.key monitored)) )
    | Some _ -> (
        let t0 = Core.Clock.now_s () in
        let ops = M.generate ~seed ~n:count () in
        let ops, injected = if inject then M.corrupt ops else (ops, false) in
        let gen_s = Core.Clock.now_s () -. t0 in
        if inject && not injected then
          `Error
            (false, "history offers no same-shaped response pair to swap")
        else begin
          Format.printf "history: %s, %d operations, seed %d (generated in \
                         %.2fs)%s@."
            T.name count seed gen_s
            (if injected then ", violation injected" else "");
          let t1 = Core.Clock.now_s () in
          (* a generated history has no protocol, so no order *)
          let r = E.R.certify ~checker (Array.of_list ops) in
          let linearizable = r.M.linearizable in
          let method_s = Monitor.method_to_string r.M.method_ in
          let check_s = Core.Clock.now_s () -. t1 in
          Format.printf "verdict: %s (%s) in %.2fs@."
            (if linearizable then "linearizable" else "NOT linearizable")
            method_s check_s;
          Option.iter
            (fun why ->
              Format.printf "  fell back to wing-gong: %s@." (Lazy.force why))
            r.M.fallback;
          Option.iter (Format.printf "  %a@." Monitor.Violation.pp) r.M.violation;
          Option.iter
            (fun path ->
              append_json path
                (Object
                   [ ("bench", String "monitor-check"); ("type", String T.name);
                     ("ops", Int count); ("seed", Int seed);
                     ("injected", Bool injected);
                     ("linearizable", Bool linearizable);
                     ("method", String method_s);
                     ("fallback", Bool (Option.is_some r.M.fallback));
                     ("gen_s", Fixed (6, gen_s));
                     ("check_s", Fixed (6, check_s)) ]);
              Format.printf "appended %s@." path)
            json_path;
          if injected && linearizable then
            `Error (false, "injected violation went undetected")
          else if (not injected) && not linearizable then
            `Error
              ( false,
                "generated history is linearizable by construction, but the \
                 checker rejected it" )
          else `Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Generate a seed-deterministic concurrent history for a monitored \
          data type and certify it with the specialized O(n log n) monitor \
          (or Wing-Gong).  With \
          $(b,--inject-violation) the verdict must flip for the command to \
          succeed.  With $(b,--scenario) the data type, seed, checker and \
          operation count come from a scenario file.")
    Term.(
      ret
        (const run $ type_arg $ count_arg $ seed_arg $ checker_arg
       $ inject_arg $ json_arg $ scenario_arg))

(* ---------------- classify ---------------- *)

let classify_cmd =
  let run pt =
    let (module T : Spec.Data_type.S) = Sweep.Packed_type.modl pt in
    let module C = Spec.Classify.Make (T) in
    Format.printf "%s:@." T.name;
    List.iter
      (fun report -> Format.printf "  %a@." Spec.Classify.pp_op_report report)
      (C.report (C.default_universe ()));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:
         "Discover the algebraic classes (mutator, accessor, transposable, \
          last-sensitive, pair-free, overwriter) of a data type's \
          operations.")
    Term.(ret (const run $ type_arg))

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Audit every bundled data type and the bound tables (the CI \
             lint gate).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the findings as JSON on stdout.")
  in
  let analyze_type_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "type"; "t" ] ~docv:"TYPE"
          ~doc:
            (Printf.sprintf "Audit a single data type; one of %s."
               (String.concat ", " Sweep.Packed_type.keys)))
  in
  let run all json dtype =
    let audited =
      match (all, dtype) with
      | false, Some name -> (
          match Sweep.Packed_type.find name with
          | Some pt ->
              Ok
                ( Analysis.Report.of_findings
                    (Analysis.Auditor.audit (Sweep.Packed_type.modl pt)),
                  name )
          | None ->
              Error
                (Printf.sprintf "unknown data type %S; known: %s" name
                   (String.concat ", " Sweep.Packed_type.keys)))
      | _, _ -> Ok (Analysis.Auditor.audit_all (), "all data types + bound tables")
    in
    match audited with
    | Error msg -> `Error (true, msg)
    | Ok (report, label) ->
        if json then print_json (Analysis.Report.to_json report)
        else begin
          Format.printf "repro analyze: %s@.@." label;
          Format.printf "%a@." Analysis.Report.pp_human report
        end;
        if Analysis.Report.has_errors report then
          `Error
            ( false,
              Printf.sprintf "analysis found %d error finding(s)"
                (Analysis.Report.errors report) )
        else `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically audit the semantic artifacts — data-type specs \
          (determinism, totality, canonical rendering, sample coverage), \
          declared operation classifications against the discovered ones, \
          declared monitor viewers against the sequential discipline and \
          classification witnesses, and the bound tables' consistency and \
          theorem preconditions — without running the simulator.  Exits \
          nonzero on any error-severity finding.")
    Term.(ret (const run $ all_arg $ json_arg $ analyze_type_arg))

(* ---------------- claims ---------------- *)

(* The proofs' runs (Figures 1, 3 and 9): Algorithm 1 on a queue,
   driven by the shift-stress harness, with X a third of the way into
   [0, d - eps] (X = 3 at the default model).  The harness is applied
   where it runs, so that starting [repro] allocates nothing for it:
   the [repro bench] sections' GC counts depend on the start-up heap. *)
let queue_label = function
  | Spec.Fifo_queue.Enqueue v -> Printf.sprintf "enq%d" v
  | Dequeue -> "deq"
  | Peek -> "peek"

let render (model : Sim.Model.t) operations =
  Bounds.Diagram.render ~n:model.n
    (Bounds.Diagram.of_operations ~label:queue_label operations)

let figure_x (model : Sim.Model.t) = Rat.div_int (Rat.sub model.d model.eps) 3

let print_matrices =
  List.iter (fun (name, matrix) ->
      Format.printf "@.%s:@.%a@." name Sim.Net.pp_matrix matrix)

(* Theorem 3's run R1 of k = n concurrent enqueues and its shift R2,
   drawn when it is admissible. *)
let figure1 (model : Sim.Model.t) =
  let module Queue_stress = Bounds.Stress.Make (Spec.Fifo_queue) in
  let k = model.n and z = 2 in
  let o =
    Queue_stress.theorem3 ~model ~x_param:(figure_x model) ~k ~z ~rho:[]
      ~instances:(List.init k (fun i -> Spec.Fifo_queue.Enqueue (i + 1)))
      ()
  in
  Format.printf
    "@.Figure 1: runs used in the proof of Theorem 3 (k = %d)@.run R1 \
     (pair-wise uniform delays d_ij = d - ((i-j)%%k)/k u):@.%s@."
    k (render model o.base.operations);
  Option.iter
    (fun (r2 : Queue_stress.report) ->
      Format.printf
        "@.run R2 = shift(R1, x) with z = %d (x_i = (-(k-1)/2k + \
         ((z-i)%%k)/k) u):@.%s@."
        z (render model r2.operations))
    o.shifted;
  let skew =
    Sim.Model.max_skew
      (Bounds.Shifting.shifted_offsets (Array.make model.n Rat.zero)
         (Bounds.Adversary.Thm3.shift_vector model ~k ~z))
  in
  Format.printf "@.max skew after shift: %s (eps = %s); %s@."
    (Rat.to_string skew) (Rat.to_string model.eps)
    (match o.shifted with
    | Some r2 -> Printf.sprintf "delays all valid: %b" r2.delays_admissible
    | None -> "R2 is no run of the model, so it is not drawn")

(* Theorem 4's two concurrent pair-free operations, after an enqueue,
   and its matrices. *)
let figures_thm4 (model : Sim.Model.t) =
  let module Queue_stress = Bounds.Stress.Make (Spec.Fifo_queue) in
  let o =
    Queue_stress.theorem4 ~model ~x_param:(figure_x model)
      ~rho:[ Spec.Fifo_queue.Enqueue 9 ] ~op0:Dequeue ~op1:Dequeue ()
  in
  Format.printf
    "@.Figure 3: Theorem 4 scenario (two concurrent pair-free ops)@.%s@."
    (render model o.base.operations);
  print_matrices (Bounds.Adversary.Thm4.matrices model)

(* Theorem 5's concurrent mutators then accessors, and its matrices. *)
let figures_thm5 (model : Sim.Model.t) =
  let module Queue_stress = Bounds.Stress.Make (Spec.Fifo_queue) in
  let o =
    Queue_stress.theorem5 ~model ~x_param:(figure_x model) ~rho:[]
      ~op0:(Spec.Fifo_queue.Enqueue 1) ~op1:(Enqueue 2) ~aop0:Peek ~aop1:Peek
      ~aop2:Peek ()
  in
  Format.printf
    "@.Figure 9: Theorem 5 scenario (concurrent mutators then accessors)@.%s@."
    (render model o.base.operations);
  print_matrices (Bounds.Adversary.Thm5.matrices model)

let claims_cmd =
  let run n d u eps =
    match make_model n d u eps with
    | Error msg -> `Error (false, msg)
    | Ok model when model.n < 3 ->
        `Error (false, "claims: Theorems 2 and 5 need n >= 3 processes")
    | Ok model -> (
        let report (label, claims, figures) =
          Format.printf "@.%s:@." label;
          List.iter
            (fun claim ->
              Format.printf "  %a@." Bounds.Adversary.pp_claim claim)
            claims;
          figures model;
          Bounds.Adversary.all_hold claims
        in
        match
          named_overflow (fun () ->
              let theorems =
                [
                  ("Theorem 2", Bounds.Adversary.Thm2.claims model, ignore);
                  ( Printf.sprintf "Theorem 3 (k = 2..%d)" model.n,
                    List.concat_map
                      (fun k -> Bounds.Adversary.Thm3.claims model ~k)
                      (List.init (model.n - 1) (( + ) 2)),
                    figure1 );
                  ( "Theorem 4",
                    Bounds.Adversary.Thm4.claims model,
                    figures_thm4 );
                  ( "Theorem 5",
                    Bounds.Adversary.Thm5.claims model,
                    figures_thm5 );
                ]
              in
              Format.printf "model: %a@." Sim.Model.pp model;
              (* a figure's run the runtime refuses is named by it *)
              match List.map report theorems with
              | held -> Ok held
              | exception Invalid_argument m ->
                  Error (Scenario.Exec.abort_message (Invalid_run m)))
        with
        | Error msg -> `Error (false, msg)
        | Ok held when List.for_all Fun.id held -> `Ok ()
        | Ok _ -> `Error (false, "some proof claims failed"))
  in
  Cmd.v
    (Cmd.info "claims"
       ~doc:
         "Machine-check the quantitative claims made in the proofs of \
          Theorems 2-5 (delay values, skews, chop points; Theorem 3's at \
          every k in 2..n), and print each proof's delay matrices \
          (Figures 2, 4-8 and 10) and Algorithm 1's run of its scenario \
          (Figures 1, 3 and 9).")
    Term.(ret (const run $ n_arg $ d_arg $ u_arg $ eps_arg))

(* ---------------- ablate ---------------- *)

let ablate_cmd =
  let run n d u eps x seed =
    match model_and_x n d u eps x with
    | Error msg -> `Error (false, msg)
    | Ok (model, x) ->
    match
      named_overflow (fun () ->
          Scenario.Ablation.report ~model ~x
            ~seeds:(List.init 8 (fun i -> seed + i)))
    with
    | Error msg -> `Error (false, msg)
    | Ok outcomes ->
    Format.printf "model: %a, X = %a@.@." Sim.Model.pp model Rat.pp x;
    List.iter
      (fun outcome ->
        Format.printf "%a@." Scenario.Ablation.pp_outcome outcome)
      outcomes;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "ablate"
       ~doc:
         "Fault-inject Algorithm 1's waiting periods and report which \
          variants the linearizability checker catches.")
    Term.(ret (const run $ n_arg $ d_arg $ u_arg $ eps_arg $ x_arg $ seed_arg))

(* ---------------- sync ---------------- *)

let sync_cmd =
  let run n d u seed spread =
    match
      named_overflow (fun () -> make_model n d u (Some (Rat.mul_int d 100)))
    with
    | Error msg -> `Error (false, msg)
    | Ok _ when spread < 1 -> `Error (false, "--spread must be at least 1")
    | Ok loose ->
    let rng = Random.State.make [| seed |] in
    let offsets =
      Array.init n (fun _ ->
          Rat.of_int (Random.State.int rng spread - (spread / 2)))
    in
    let result =
      Sim.Clock_sync.run ~model:loose ~offsets
        ~delay:(Sim.Net.random_model ~seed loose)
        ()
    in
    let print_row label values =
      Format.printf "%-18s" label;
      Array.iter (fun v -> Format.printf " %8s" (Rat.to_string v)) values;
      Format.printf "@."
    in
    print_row "raw offsets:" result.raw_offsets;
    print_row "adjustments:" result.adjustments;
    print_row "adjusted:" result.adjusted_offsets;
    Format.printf "achieved skew %s <= guaranteed (1-1/n)u = %s@."
      (Rat.to_string result.achieved_skew)
      (Rat.to_string result.guaranteed_skew);
    if Rat.le result.achieved_skew result.guaranteed_skew then `Ok ()
    else `Error (false, "Lundelius-Lynch bound violated (bug)")
  in
  let spread_arg =
    Arg.(
      value & opt int 60
      & info [ "spread" ] ~docv:"S"
          ~doc:"Raw offsets drawn from [-S/2, S/2).")
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "Run one Lundelius-Lynch clock synchronization round and report           the achieved skew against the optimal bound (1-1/n)u.")
    Term.(ret (const run $ n_arg $ d_arg $ u_arg $ seed_arg $ spread_arg))

(* ---------------- faults ---------------- *)

let faults_cmd =
  let json_arg = json_flag in
  let faults_type_arg =
    Arg.(
      value
      & opt (some (enum all_types)) None
      & info [ "type"; "t" ] ~docv:"TYPE"
          ~doc:
            "Run the matrix for a single data type (default: queue and \
             register).")
  in
  let run n d u eps x seed json jobs dtype scenario =
    (* A scenario pins the matrix's coordinates: its model point, X,
       seed and data type replace the individual flags. *)
    let resolved =
      match scenario with
      | None ->
          Result.map
            (fun (model, x) -> (model, x, seed, dtype))
            (model_and_x n d u eps x)
      | Some ref_ -> (
          match load_scenario ref_ with
          | Error msg -> Error msg
          | Ok s ->
              let x =
                match s.Scenario.algorithm with
                | Scenario.Wtlw { x; _ } -> Some x
                | Scenario.Centralized | Scenario.Tob -> None
              in
              Result.map
                (fun x ->
                  ( s.Scenario.model,
                    x,
                    s.Scenario.seed,
                    Sweep.Packed_type.find s.Scenario.dt ))
                (make_x s.Scenario.model x))
    in
    match resolved with
    | Error msg -> `Error (false, msg)
    | Ok (model, x, seed, dtype) ->
    let targets =
      match dtype with
      | Some pt -> [ pt ]
      | None -> [ packed_queue; packed_register ]
    in
    (* The matrix is a sweep: one pool job per (type, case) cell, with
       unchanged certification semantics and a jobs-independent
       verdict. *)
    Sweep.Pool.Interrupt.install ();
    let cells =
      Sweep.robustness ~jobs ~should_stop:Sweep.Pool.Interrupt.requested
        ~model ~x ~seed targets
    in
    if json then print_json (Scenario.Robustness.to_json cells)
    else begin
      Format.printf "model: %a, X = %a@.@." Sim.Model.pp model Rat.pp x;
      Format.printf "%a@." Scenario.Robustness.pp_matrix cells
    end;
    (* Nonzero exit unless every cell certified, so CI can gate on it. *)
    if Sweep.Pool.Interrupt.requested () then
      `Error
        ( false,
          "faults interrupted; completed cells are reported above — re-run \
           to evaluate the rest" )
    else if Scenario.Robustness.all_certified cells then `Ok ()
    else `Error (false, "robustness matrix has uncertified cells")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run the fault-injection robustness matrix: for each data type and \
          nemesis plan (drops, duplication, delay spikes, crash-stop, clock \
          skew), run the algorithm raw (expect the checker or admissibility \
          monitor to flag the damage) and over the ack/retransmit reliable \
          channel against the inflated model d' = d + k*rto (expect a \
          machine-checked linearizable run).  Exits nonzero unless every \
          cell is certified.  With $(b,--scenario) the model point, X, seed \
          and data type come from a scenario file.")
    Term.(
      ret
        (const run $ n_arg $ d_arg $ u_arg $ eps_arg $ x_arg $ seed_arg
       $ json_arg $ jobs_arg $ faults_type_arg $ scenario_arg))

(* ---------------- sweep ---------------- *)

let sweep_cmd =
  let json_arg =
    json_path_arg
      ~doc:
        "Write the full JSON artifact (per-cell verdicts, latency \
         summaries, worst observed latency vs the bound formula) to \
         $(docv)."
  in
  let sweep_type_arg =
    Arg.(
      value
      & opt (some (enum all_types)) None
      & info [ "type"; "t" ] ~docv:"TYPE"
          ~doc:"Restrict the grid to a single data type (default: all ten).")
  in
  let grid_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "grid" ] ~docv:"SPEC"
          ~doc:
            "Model points as semicolon-separated comma lists, e.g. \
             'n=3,d=10,u=4,eps=1;n=4,d=8,u=2' (eps defaults to the optimal \
             (1-1/n)u).  Default: the reference points n=3,d=10,u=4,eps=1 \
             and n=4,d=8,u=2,eps=1/2.")
  in
  let fail_fast_arg =
    Arg.(
      value & flag
      & info [ "fail-fast" ]
          ~doc:
            "Cancel unclaimed cells after the first failure (in-flight \
             cells still complete and are reported; cancelled ones are \
             listed as skipped).")
  in
  let sweep_ops_arg =
    Arg.(
      value & opt non_negative 2
      & info [ "ops" ] ~docv:"K"
          ~doc:"Operations per process in each cell (closed loop).")
  in
  let resume_arg = resume_arg ~unit_:"cell" in
  let cell_budget_arg =
    Arg.(
      value
      & opt (some non_negative_float) None
      & info [ "cell-budget" ] ~docv:"SECONDS"
          ~doc:
            "Per-cell wall budget: each cell is evaluated once, and a cell \
             still running after $(docv) seconds fails with a named \
             $(b,Cell_timeout) diagnostic instead of wedging the sweep.  \
             $(b,--resume) with $(b,--rerun-failed) re-runs journaled \
             timeouts under a new budget.")
  in
  let rerun_failed_arg =
    Arg.(
      value & flag
      & info [ "rerun-failed" ]
          ~doc:
            "With $(b,--resume): re-run journaled cells whose record is a \
             diagnostic instead of replaying the failure.")
  in
  let fingerprint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fingerprint" ] ~docv:"PATH"
          ~doc:
            "Write the campaign fingerprint (deterministic, \
             jobs-independent) to $(docv), for resume/merge equivalence \
             checks.")
  in
  let spool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Shared spool directory for multi-process execution; combine \
             with $(b,--worker) to claim and evaluate cells, or \
             $(b,--merge) to assemble the finished campaign.")
  in
  let worker_arg =
    Arg.(
      value & flag
      & info [ "worker" ]
          ~doc:
            "Run as a spool worker: claim cells from $(b,--spool) via \
             leased files, evaluate, and journal until the campaign is \
             done or a stop signal arrives.")
  in
  let worker_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-id" ] ~docv:"ID"
          ~doc:"Spool worker identity (default: hostname-pid).")
  in
  let lease_ttl_arg =
    Arg.(
      value & opt positive_float 60.0
      & info [ "lease-ttl" ] ~docv:"SECONDS"
          ~doc:
            "A spool lease not heartbeated for this long is presumed dead \
             and taken over.")
  in
  let merge_arg =
    Arg.(
      value & flag
      & info [ "merge" ]
          ~doc:
            "Assemble the campaign from every worker journal in \
             $(b,--spool); fails while any cell is missing.")
  in
  let run jobs json_path dtype grid_spec fail_fast seed ops checker resume_dir
      journal_sync wall_budget_s rerun_failed fingerprint_path spool_dir worker
      worker_id lease_ttl merge =
    let grid =
      { Sweep.default_grid with per_proc = ops; seeds = [ seed ]; checker }
    in
    let grid =
      match dtype with None -> grid | Some pt -> { grid with types = [ pt ] }
    in
    match
      match grid_spec with
      | None -> Ok grid
      | Some spec -> (
          match parse_grid_points spec with
          | Ok points -> Ok { grid with points }
          | Error msg -> Error msg)
    with
    | Error msg -> `Error (true, msg)
    | Ok _ when (worker || merge) && spool_dir = None ->
        `Error (true, "--worker and --merge require --spool DIR")
    | Ok _ when worker && merge ->
        `Error (true, "--worker and --merge are mutually exclusive")
    | Ok _ when spool_dir <> None && not (worker || merge) ->
        `Error (true, "--spool DIR requires --worker or --merge")
    | Ok _ when spool_dir <> None && resume_dir <> None ->
        `Error (true, "--spool and --resume are mutually exclusive")
    | Ok grid -> (
        Sweep.Pool.Interrupt.install ();
        let should_stop = Sweep.Pool.Interrupt.requested in
        (* Shared tail for every mode that yields a campaign: print,
           write artifacts, then gate — interruption first (nonzero,
           with a one-line resume hint; journaled partials are already
           on disk), certification second. *)
        let finish ~resume_hint t =
          Format.printf "%a@." Sweep.pp t;
          (match json_path with
          | None -> ()
          | Some path ->
              let json = Core.Json.compact (Sweep.to_json t) in
              Out_channel.with_open_text path (fun oc ->
                  output_string oc (json ^ "\n"));
              Format.printf "wrote %s@." path);
          (match fingerprint_path with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc (Sweep.fingerprint t);
              close_out oc;
              Format.printf "wrote %s@." path);
          if t.Sweep.resume.Sweep.interrupted then
            `Error (false, "sweep interrupted; " ^ resume_hint)
          else if Sweep.certified t then `Ok ()
          else `Error (false, "sweep has uncertified cells")
        in
        match spool_dir with
        | Some dir when worker -> (
            match
              Sweep.Spool.worker ?worker_id ?wall_budget_s ~should_stop
                ~sync_every:journal_sync ~lease_ttl_s:lease_ttl ~dir grid
            with
            | Error msg -> `Error (false, msg)
            | Ok r ->
                Format.printf
                  "worker %s: %d cells completed (%d failed), %d lease \
                   takeovers@."
                  r.Sweep.Spool.worker r.Sweep.Spool.completed
                  r.Sweep.Spool.failed r.Sweep.Spool.takeovers;
                if r.Sweep.Spool.interrupted then
                  `Error
                    ( false,
                      Printf.sprintf
                        "worker interrupted; journaled cells kept — resume \
                         with: repro sweep --spool %s --worker"
                        dir )
                else begin
                  Format.printf
                    "campaign complete; assemble with: repro sweep --spool \
                     %s --merge@."
                    dir;
                  `Ok ()
                end)
        | Some dir -> (
            match Sweep.Spool.merge ~dir grid with
            | Error msg -> `Error (false, msg)
            | Ok t -> finish ~resume_hint:"" t)
        | None -> (
            match resume_dir with
            | Some dir ->
                finish
                  ~resume_hint:
                    (Printf.sprintf
                       "journaled cells kept — resume with: repro sweep \
                        --resume %s"
                       dir)
                  (Sweep.run_durable ~jobs ~fail_fast ?wall_budget_s
                     ~should_stop ~sync_every:journal_sync
                     ~replay_failures:(not rerun_failed) ~dir grid)
            | None ->
                finish
                  ~resume_hint:
                    "partial results above are not journaled (pass --resume \
                     DIR for a resumable campaign)"
                  (Sweep.run ~jobs ~fail_fast ?wall_budget_s ~should_stop
                     grid)))
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Evaluate the full campaign grid — data type x algorithm \
          (wtlw/centralized/tob) x model point x raw/recovered channel leg \
          — sharded across a pool of OCaml domains.  Every cell runs the \
          workload end-to-end, machine-checks linearizability, and judges \
          the worst observed latency of each operation class against the \
          paper's bound formula.  With $(b,--resume) the campaign is \
          checkpointed to a crash-safe journal and a killed run resumes \
          with a byte-identical fingerprint; with $(b,--spool) plus \
          $(b,--worker)/$(b,--merge) several processes split one campaign \
          through leased cell claims.  Exits nonzero unless every cell is \
          certified.")
    Term.(
      ret
        (const run $ jobs_arg $ json_arg $ sweep_type_arg $ grid_arg
       $ fail_fast_arg $ seed_arg $ sweep_ops_arg $ checker_arg $ resume_arg
       $ journal_sync_arg $ cell_budget_arg $ rerun_failed_arg
       $ fingerprint_arg $ spool_arg $ worker_arg $ worker_id_arg
       $ lease_ttl_arg $ merge_arg))

(* ---------------- bench ---------------- *)

(* Every suite section is measured in its own subprocess: allocation
   counters are byte-identical for the first measurement in a fresh
   process, and the regression gate depends on exactly that. *)

let head_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown")

let bench_cmd =
  let tolerance = Printf.sprintf "%g%%" (Perf.History.tolerance *. 100.) in
  let section_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "section" ] ~docv:"NAME"
          ~doc:
            "Internal: measure a single suite section in this process and \
             print its datapoint.  The parent driver passes this so that \
             every section is the first measurement of a fresh process, \
             which is what makes the metrics deterministic.")
  in
  let commit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "commit" ]
          ~doc:"Internal: commit sha to stamp on the datapoint.")
  in
  let phase_arg =
    Arg.(
      value & opt int 0
      & info [ "phase" ] ~docv:"J"
          ~doc:
            "Internal: with $(b,--section), start the run J/64 of the way \
             into the minor heap.  The parent driver measures every \
             section at each phase and records the mean, so promoted words \
             do not depend on where the minor heap happens to fill.")
  in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            ("Gate the run against the recorded history and exit nonzero on \
              a change of per-event allocation beyond " ^ tolerance
           ^ ": a regression, or an improvement the history has no \
              datapoint for."))
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"REF"
          ~doc:
            "Commit sha (prefix) to gate against, instead of the most \
             recent recorded datapoint from another commit.")
  in
  let history_arg =
    Arg.(
      value & opt string "bench/history"
      & info [ "history-dir" ] ~docv:"DIR"
          ~doc:"Directory holding one datapoint file per bench section.")
  in
  let no_record_arg =
    Arg.(
      value & flag
      & info [ "no-record" ] ~doc:"Do not update the history files.")
  in
  let run_child name commit phase =
    match Perf.Suite.find name with
    | None -> `Error (false, Printf.sprintf "unknown bench section %S" name)
    | Some s ->
        let events, m = Perf.Suite.measure ~phase s in
        let dp = Perf.History.of_metrics ~commit ~bench:s.name ~events m in
        (* The datapoint line, with the nondeterministic extras the
           parent displays but never persists. *)
        let instructions =
          Core.Json.nullable
            (fun n -> Core.Json.Int (Int64.to_int n))
            m.instructions
        in
        print_endline
          (Perf.History.to_line dp
             ~extra:
               [ ("wall_ns", Int m.wall_ns); ("instructions", instructions) ]);
        Printf.printf "wall=%.1fms minor=%.0f (%.2f/event) instr=%s\n"
          (float_of_int m.wall_ns /. 1e6)
          m.minor_words
          (m.minor_words /. float_of_int (max 1 events))
          (match m.instructions with
          | Some n -> Int64.to_string n
          | None -> "n/a");
        `Ok ()
  in
  let run_section_subprocess ~commit name phase =
    let exe = Sys.executable_name in
    let r_fd, w_fd = Unix.pipe () in
    let pid =
      Unix.create_process exe
        [|
          exe;
          "bench";
          "--section";
          name;
          "--commit";
          commit;
          "--phase";
          string_of_int phase;
        |]
        Unix.stdin w_fd Unix.stderr
    in
    Unix.close w_fd;
    let ic = Unix.in_channel_of_descr r_fd in
    let buf = Buffer.create 256 in
    (try
       while true do
         Buffer.add_channel buf ic 1
       done
     with End_of_file -> ());
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match (status, String.split_on_char '\n' (Buffer.contents buf)) with
    | Unix.WEXITED 0, json :: human :: _ -> (
        match Perf.History.of_line json with
        | Some dp -> Ok (dp, human)
        | None -> Error (name ^ ": unparseable datapoint"))
    | _ -> Error (Printf.sprintf "bench section %s failed" name)
  in
  (* One datapoint per section, the mean over every phase of the minor
     heap, each phase measured in a fresh process; and phase 0's line of
     wall time and minor words. *)
  let measure_section ~commit name =
    let rec go phase acc =
      if phase = Perf.Suite.phases then
        let points = List.rev acc in
        Result.map
          (fun dp -> (dp, snd (List.hd points)))
          (Perf.History.average (List.map fst points))
      else
        match run_section_subprocess ~commit name phase with
        | Ok point -> go (phase + 1) (point :: acc)
        | Error _ as e -> e
    in
    go 0 []
  in
  let run compare baseline history_dir no_record section commit phase =
    match section with
    | Some name -> run_child name (Option.value commit ~default:"unknown") phase
    | None ->
        let commit =
          match commit with Some c -> c | None -> head_commit ()
        in
        let failures = ref [] in
        let fail msg = failures := msg :: !failures in
        List.iter
          (fun (s : Perf.Suite.section) ->
            match measure_section ~commit s.name with
            | Error msg -> fail msg
            | Ok (dp, human) ->
                Printf.printf "%-16s %s promoted=%.0f (mean of %d phases)\n"
                  s.name human dp.promoted_words Perf.Suite.phases;
                let file =
                  Filename.concat history_dir (s.name ^ ".jsonl")
                in
                let hist = Perf.History.load ~file in
                (if compare then
                   match
                     Perf.History.pick_baseline ?ref_prefix:baseline
                       ~head:commit hist
                   with
                   | Error msg -> fail (s.name ^ ": " ^ msg)
                   | Ok None ->
                       Printf.printf
                         "%-16s no recorded baseline; gate passes \
                          vacuously\n"
                         ""
                   | Ok (Some b) -> (
                       let recorded =
                         List.find_opt
                           (fun (p : Perf.History.datapoint) ->
                             p.commit = commit)
                           hist
                       in
                       match
                         Perf.History.gate ~recorded ~baseline:b
                           ~current:dp
                       with
                       | Ok msg -> Printf.printf "%-16s PASS %s\n" "" msg
                       | Error msg ->
                           Printf.printf "%-16s FAIL %s\n" "" msg;
                           fail (s.name ^ ": " ^ msg)));
                if not no_record then Perf.History.upsert ~file dp)
          Perf.Suite.sections;
        if !failures = [] then `Ok ()
        else `Error (false, String.concat "\n" (List.rev !failures))
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         ("Run the deterministic perf suite: each section is measured in a \
          fresh subprocess at each of 64 phases of the minor heap, its \
          allocation counters (exactly reproducible for a deterministic \
          workload; promoted words averaged over the phases) are recorded \
          per commit under \
          bench/history/, and $(b,--compare) gates the run against the \
          recorded baseline, failing on per-event allocation growth beyond \
          " ^ tolerance
       ^ " and on an unrecorded drop beyond it.  Wall time and the hardware \
          instruction counter (when the kernel allows it) are reported but \
          never gated on."))
    Term.(
      ret
        (const run $ compare_arg $ baseline_arg $ history_arg $ no_record_arg
       $ section_arg $ commit_arg $ phase_arg))

(* ---------------- finding ---------------- *)

let finding_cmd =
  let run () =
    Format.printf
      "Reproduction finding: the paper's accessor wait (d - X) is an eps \
       too@.short.  Deterministic counterexample (d=12, u=4, eps=3, X=3):@.\
       two concurrent enqueues with timestamps 197/2 < 99; the accessor \
       drain@.at p1 executes the later-stamped one first.@.@.";
    let show label knob =
      let lin, conv = Scenario.Ablation.finding knob in
      Format.printf "  %-20s linearizable=%-5b replicas-converged=%b@." label
        lin conv
    in
    show "paper-verbatim" Core.Ablation.Paper_verbatim;
    show "repaired" Core.Ablation.Paper;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "finding"
       ~doc:
         "Demonstrate the accessor-wait counterexample against the paper's \
          verbatim pseudocode, and that the repaired timing survives it.")
    Term.(ret (const run $ const ()))

(* ---------------- scenario ---------------- *)

(* Declarative scenarios: run files (or builtins) through the executor,
   generate a pinned-seed batch, and shrink a failing scenario to a
   minimal counterexample — optionally probing the shrunk delay matrix
   against the paper's bound tables. *)

let scenario_json_doc =
  "Append a one-line JSON record per outcome to $(docv)."

let scenario_run_cmd =
  let refs_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario files, or builtin scenario names.")
  in
  let json_arg = json_path_arg ~doc:scenario_json_doc in
  let run refs json_path =
    let failed = ref [] in
    List.iter
      (fun ref_ ->
        match load_scenario ref_ with
        | Error msg ->
            Format.printf "%s: %s@." ref_ msg;
            failed := ref_ :: !failed
        | Ok s ->
            let o = Scenario.run s in
            Format.printf "%a@." Scenario.Exec.pp_outcome o;
            Option.iter
              (fun p -> append_json p (Scenario.Exec.json_of_outcome o))
              json_path;
            if not (Scenario.Exec.passes o) then failed := ref_ :: !failed)
      refs;
    Option.iter (Format.printf "appended %s@.") json_path;
    match List.rev !failed with
    | [] -> `Ok ()
    | fs ->
        `Error
          ( false,
            Printf.sprintf "%d scenario(s) did not meet their expectation: %s"
              (List.length fs) (String.concat ", " fs) )
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run scenario files through the executor and judge each against \
          its declared expectation (certify / violate / diagnostic) and \
          temporal predicate.  Exits nonzero unless every scenario meets \
          its expectation.")
    Term.(ret (const run $ refs_arg $ json_arg))

let scenario_gen_cmd =
  let count_arg =
    Arg.(
      value & opt non_negative 1
      & info [ "count" ] ~docv:"N"
          ~doc:"Generate $(docv) scenarios, from consecutive seeds.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write each generated scenario to $(docv)/<name>.scn instead of \
             printing it.")
  in
  let run_flag =
    Arg.(
      value & flag
      & info [ "run" ]
          ~doc:
            "Also execute every generated scenario; generated scenarios are \
             drawn to certify, so any failure exits nonzero.")
  in
  let json_arg = json_path_arg ~doc:scenario_json_doc in
  let run seed count out run_them json_path =
    let scenarios = Scenario.Generate.batch ~seed ~count in
    (match out with
    | None ->
        if not run_them then
          List.iter (fun s -> print_string (Scenario.to_string s)) scenarios
    | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        List.iter
          (fun (s : Scenario.t) ->
            let path = Filename.concat dir (s.Scenario.name ^ ".scn") in
            Scenario.save path s;
            Format.printf "wrote %s@." path)
          scenarios);
    if not run_them then `Ok ()
    else begin
      let failures = ref 0 in
      List.iter
        (fun (s : Scenario.t) ->
          let o = Scenario.run s in
          Format.printf "%-10s %s  (%s, %d ops, %.3fs)@." s.Scenario.name
            (if Scenario.Exec.passes o then "PASS" else "FAIL")
            s.Scenario.dt o.Scenario.Exec.operations o.Scenario.Exec.wall_s;
          (match (Scenario.Exec.passes o, o.Scenario.Exec.witness) with
          | false, Some w -> Format.printf "           witness: %s@." w
          | _ -> ());
          Option.iter
            (fun p -> append_json p (Scenario.Exec.json_of_outcome o))
            json_path;
          if not (Scenario.Exec.passes o) then incr failures)
        scenarios;
      Option.iter (Format.printf "appended %s@.") json_path;
      if !failures = 0 then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d generated scenarios failed" !failures
              count )
    end
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate seed-deterministic random scenarios over the bundled \
          data types (same seed, byte-identical scenario).  With $(b,--run) \
          the batch doubles as a randomized end-to-end suite: every \
          generated scenario must certify.")
    Term.(ret (const run $ seed_arg $ count_arg $ out_arg $ run_flag $ json_arg))

let scenario_shrink_cmd =
  let ref_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario file, or a builtin scenario name.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PATH"
          ~doc:"Write the shrunk scenario to $(docv).")
  in
  let max_attempts_arg =
    Arg.(
      value & opt non_negative 2000
      & info [ "max-attempts" ] ~docv:"K"
          ~doc:"Candidate runs to try before settling for the current size.")
  in
  let probe_arg =
    Arg.(
      value & flag
      & info [ "probe-bounds" ]
          ~doc:
            "Feed the shrunk scenario's delay matrix into the adversary \
             machinery: rerun it with the repaired timing and judge each \
             operation class's worst latency against the paper's lower and \
             upper bounds, reporting whether the matrix witnesses bound \
             tightness.")
  in
  let json_arg = json_path_arg ~doc:scenario_json_doc in
  let run ref_ out max_attempts probe json_path =
    match load_scenario ref_ with
    | Error msg -> `Error (false, msg)
    | Ok s -> (
        match Scenario.shrink ~max_attempts s with
        | Error msg -> `Error (false, msg)
        | Ok o ->
            Format.printf "%a@." Scenario.Shrink.pp_outcome o;
            Option.iter
              (fun path ->
                Scenario.save path o.Scenario.Shrink.scenario;
                Format.printf "wrote %s@." path)
              out;
            let probe_report =
              if probe then
                match Scenario.Probe.probe o.Scenario.Shrink.scenario with
                | Error msg ->
                    Format.printf "bound probe: %s@." msg;
                    Some (Error msg)
                | Ok r ->
                    Format.printf "%a@." Scenario.Probe.pp r;
                    Some (Ok r)
              else None
            in
            Option.iter
              (fun p ->
                let tightness : Core.Json.t =
                  match probe_report with
                  | Some (Ok r) -> Bool (Scenario.Probe.witnesses_tightness r)
                  | _ -> Null
                in
                let { Scenario.Shrink.scenario; exec; initial_size; final_size;
                      steps; attempts } =
                  o
                in
                append_json p
                  Core.Json.(
                    Object
                      [ ("bench", String "scenario-shrink");
                        ("scenario", String scenario.Scenario.name);
                        ("initial_size", Int initial_size);
                        ("final_size", Int final_size); ("steps", Int steps);
                        ("attempts", Int attempts);
                        ( "witness",
                          nullable
                            (fun w -> String w)
                            exec.Scenario.Exec.witness );
                        ("tightness", tightness) ]);
                Format.printf "appended %s@." p)
              json_path;
            (match probe_report with
            | Some (Error msg) -> `Error (false, "bound probe: " ^ msg)
            | _ -> `Ok ()))
  in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Reduce a failing scenario to a minimal counterexample: greedily \
          drop invocations, move the delay matrix toward the uniform point, \
          drop fault specs and shrink seeds, to a fixpoint.  The result is \
          deterministic (a function of the scenario alone) and still fails \
          the same expectation.  With $(b,--probe-bounds) the shrunk matrix \
          is judged against the paper's bound tables.")
    Term.(
      ret
        (const run $ ref_arg $ out_arg $ max_attempts_arg $ probe_arg
       $ json_arg))

let scenario_cmd =
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Declarative scenarios: first-class run descriptions (data type, \
          model, delays, faults, algorithm, workload, expectation, temporal \
          predicate) with a stable textual encoding, a seed-deterministic \
          generator and a counterexample shrinker.")
    [ scenario_run_cmd; scenario_gen_cmd; scenario_shrink_cmd ]

let main =
  Cmd.group
    (Cmd.info "repro" ~version:"1.0"
       ~doc:
         "Reproduction of 'Improved Time Bounds for Linearizable \
          Implementations of Abstract Data Types' (IPPS 2014).")
    [
      tables_cmd;
      simulate_cmd;
      load_cmd;
      sweep_cmd;
      check_cmd;
      analyze_cmd;
      classify_cmd;
      claims_cmd;
      ablate_cmd;
      faults_cmd;
      sync_cmd;
      bench_cmd;
      finding_cmd;
      scenario_cmd;
    ]

let () = exit (Cmd.eval main)
