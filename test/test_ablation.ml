(* Ablation tests: each of Algorithm 1's waits is load-bearing — the
   fault-injected variants produce machine-checked linearizability
   violations or replica divergence, while the repaired default never
   does.  Includes the reproduction finding: the paper's verbatim
   accessor wait (d - X) admits a non-linearizable run. *)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1)
let x = rat 3 1
let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

module Q = Spec.Fifo_queue
module A = Scenario.Ablation

let evaluate knob = A.evaluate ~model ~x ~seeds knob

let test_control_sound () =
  let outcome = evaluate Core.Ablation.Paper in
  Alcotest.(check bool) "repaired default: all runs sound" true
    (A.sound outcome);
  Alcotest.(check int) "zero violations" 0 (A.violations outcome)

let expect_violation name knob =
  let outcome = evaluate knob in
  Alcotest.(check bool)
    (name ^ ": at least one violation caught")
    true
    (A.violations outcome > 0)

let test_no_execute_wait_caught () =
  expect_violation "no-execute-wait" Core.Ablation.No_execute_wait

let test_no_add_wait_caught () =
  expect_violation "no-add-wait" Core.Ablation.No_add_wait

let test_eager_accessor_caught () =
  expect_violation "eager accessor"
    (Core.Ablation.Eager_accessor (Rat.div_int (Rat.sub model.d x) 4))

(* The reproduction finding as scenario data ([Scenario.Builtin]): the
   paper's exact pseudocode produces a divergent, non-linearizable
   admissible run; flipping the knob to the repaired timing certifies
   the identical schedule. *)
let expect_counterexample (s : Scenario.t) =
  let paper = Scenario.run s in
  Alcotest.(check bool)
    (s.Scenario.name ^ ": verbatim run fails certification")
    false paper.Scenario.Exec.certified;
  Alcotest.(check (option bool))
    (s.Scenario.name ^ ": replicas diverge")
    (Some false) paper.Scenario.Exec.converged;
  let repaired =
    Scenario.run (Scenario.with_knob s Core.Ablation.Paper)
  in
  Alcotest.(check bool)
    (s.Scenario.name ^ ": repaired timing certifies")
    true repaired.Scenario.Exec.certified;
  Alcotest.(check (option bool))
    (s.Scenario.name ^ ": repaired replicas converge")
    (Some true) repaired.Scenario.Exec.converged

let test_paper_verbatim_counterexample () =
  expect_counterexample Scenario.Builtin.ablation_counterexample

(* The same counterexample expressed on the register (write/read):
   writes overwrite, so the replicas end up diverged, and sequential
   reads at different processes conflict. *)
let test_paper_verbatim_register () =
  expect_counterexample Scenario.Builtin.ablation_register

(* Where the counterexample is caught: Algorithm 1's own order (by
   timestamp, accessors backdated) is refused by the verifier at the
   accessor that was answered without a mutator placed before it — the
   Lemma 5 break — and Wing-Gong, run as the fallback, rejects the
   history too.  The Wing-Gong checker alone rejects it as well. *)
module Order_finding (T : Spec.Data_type.S) = struct
  module E = Scenario.Exec.Run (T)
  module Sem = Spec.Data_type.Semantics (T)

  let check (s : Scenario.t) ~accessor:(acc_proc, acc_at) ~mutator_proc =
    let cfg =
      match E.config_of s with Ok cfg -> cfg | Error e -> Alcotest.fail e
    in
    let r = E.R.run cfg in
    let arr = Array.of_list r.operations in
    let name = s.Scenario.name in
    (match r.order_failure with
    | Some (Monitor.Replay_mismatch { op; overtook = Some m }) ->
        let a = arr.(op) and w = arr.(m) in
        Alcotest.(check bool)
          (name ^ ": the accessor is named") true
          (Sem.kind_of a.inv = Spec.Op_kind.Pure_accessor
          && a.proc = acc_proc
          && Rat.equal a.inv_time (Rat.of_int acc_at));
        Alcotest.(check bool)
          (name ^ ": the mutator it overtook is named") true
          (Sem.kind_of w.inv = Spec.Op_kind.Pure_mutator
          && w.proc = mutator_proc)
    | _ ->
        Alcotest.failf "%s: supplied order not refused at an accessor (%s)"
          name
          (Option.value (E.R.order_finding r) ~default:"accepted"));
    Alcotest.(check (option string))
      (name ^ ": Wing-Gong ran as the fallback")
      (Some "monitor, fell back to wing-gong") r.checked_by;
    Alcotest.(check bool) (name ^ ": and rejected") false
      (Option.is_some r.linearization);
    let wg = E.R.run { cfg with checker = Core.Runtime.Wing_gong } in
    Alcotest.(check (option string))
      (name ^ ": wing-gong checker on its own")
      (Some "wing-gong") wg.checked_by;
    Alcotest.(check bool) (name ^ ": rejects it too") false
      (Option.is_some wg.linearization)
end

(* The queue's probe at p1 peeks before the slow enqueue from p3
   arrives; the register's late read at p1 sees p3's write applied
   after p2's. *)
let test_queue_order_finding () =
  let module F = Order_finding (Spec.Fifo_queue) in
  F.check Scenario.Builtin.ablation_counterexample ~accessor:(1, 100)
    ~mutator_proc:3

let test_register_order_finding () =
  let module F = Order_finding (Spec.Register) in
  F.check Scenario.Builtin.ablation_register ~accessor:(1, 141)
    ~mutator_proc:2

let test_report_shape () =
  let report = Result.get_ok (A.report ~model ~x ~seeds:[ 1; 2 ]) in
  Alcotest.(check int) "seven knobs" 7 (List.length report);
  (* First knob is the control and must be sound. *)
  Alcotest.(check bool) "control first and sound" true
    (A.sound (List.hd report));
  List.iter
    (fun (o : A.outcome) -> Alcotest.(check int) "runs counted" 2 o.runs)
    report

(* The schedule uses processes 0 to 3: a smaller model is refused by
   name, not run into an out-of-bounds edge. *)
let test_report_refuses_small_model () =
  let small =
    Sim.Model.make_optimal_eps ~n:3 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)
  in
  match A.report ~model:small ~x ~seeds:[ 1 ] with
  | Ok _ -> Alcotest.fail "n = 3 must be refused"
  | Error msg ->
      Alcotest.(check bool) "names the requirement" true
        (String.starts_with ~prefix:"ablation legs need n >= 4" msg)

(* An X outside [0, d - eps] is refused by name rather than run: at
   eps = 100 above d = 12 the default X = (d - eps)/2 is -44, and the
   repaired control would be reported as a caught violation. *)
let test_report_refuses_x_outside_range () =
  let wide =
    Sim.Model.make ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)
      ~eps:(Rat.of_int 100)
  in
  let refused label ~model ~x =
    match A.report ~model ~x ~seeds:[ 1 ] with
    | Ok _ -> Alcotest.failf "%s must be refused" label
    | Error msg ->
        Alcotest.(check bool) (label ^ " names X") true
          (String.starts_with ~prefix:"X = " msg)
  in
  refused "eps above d" ~model:wide
    ~x:(Rat.div_int (Rat.sub wide.d wide.eps) 2);
  refused "X above d - eps" ~model
    ~x:(Rat.add (Rat.sub model.d model.eps) Rat.one);
  refused "negative X" ~model ~x:(Rat.of_int (-1))

let legs () =
  List.concat_map
    (fun knob -> List.map (fun seed -> A.scenario ~model ~x ~seed knob) seeds)
    (A.default_knobs model ~x)

(* Every leg is a self-contained file: it decodes to itself and the
   decoded copy reruns to the same verdict. *)
let test_legs_round_trip () =
  let verdict s =
    let o = Scenario.run s in
    (o.Scenario.Exec.linearizable, o.Scenario.Exec.converged)
  in
  List.iter
    (fun (s : Scenario.t) ->
      match Scenario.of_string (Scenario.to_string s) with
      | Error e -> Alcotest.failf "%s: %s" s.name e
      | Ok s' ->
          Alcotest.(check bool) (s.name ^ ": decodes to itself") true
            (Scenario.equal s s');
          Alcotest.(check (pair bool (option bool)))
            (s.name ^ ": same verdict") (verdict s) (verdict s'))
    (legs ())

(* A leg's operations are its seed's draws, in this order: the
   accessor of the opening race, its pure mutator, four accessors for
   p3 and four for p0, then four mutators for p2 and four for p1, each
   redrawn until its class fits.  Listed in schedule order, every
   reference resolves to the invocation drawn for it. *)
let test_op_refs_resolve () =
  let module E = Scenario.Exec.Run (Q) in
  let kind inv = List.assoc (Q.op_of inv) Q.operations in
  let accessor k = k = Spec.Op_kind.Pure_accessor in
  let pure_mutator k = k = Spec.Op_kind.Pure_mutator in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let rec draw fits =
        let inv = Q.gen_invocation rng in
        if fits (kind inv) then inv else draw fits
      in
      let four fits = List.init 4 (fun _ -> draw fits) in
      let race_accessor = draw accessor in
      let race_mutator = draw pure_mutator in
      let reads3 = four accessor in
      let reads0 = four accessor in
      let writes2 = four Spec.Op_kind.is_mutator in
      let writes1 = four Spec.Op_kind.is_mutator in
      let drawn =
        (race_mutator :: race_accessor :: writes1) @ writes2 @ reads0 @ reads3
      in
      match (A.scenario ~model ~x ~seed Core.Ablation.Paper).workload with
      | Scenario.Explicit entries ->
          List.iter2
            (fun (e : Scenario.entry) inv ->
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: p%d at %s resolves to its draw" seed
                   e.proc (Rat.to_string e.at))
                true
                (E.resolve_op e.op = Ok inv))
            entries drawn
      | _ -> Alcotest.fail "ablation leg without an explicit schedule")
    seeds

(* The short-execute-wait variant degrades gracefully as the wait
   approaches the correct u + eps: with the full wait it is sound. *)
let test_execute_wait_boundary () =
  let full = Rat.add model.u model.eps in
  let outcome = evaluate (Core.Ablation.Short_execute_wait full) in
  Alcotest.(check bool) "full execute wait sound" true
    (A.sound outcome)

let () =
  Alcotest.run "ablation"
    [
      ( "knobs",
        [
          Alcotest.test_case "control sound" `Quick test_control_sound;
          Alcotest.test_case "no execute wait caught" `Quick
            test_no_execute_wait_caught;
          Alcotest.test_case "no add wait caught" `Quick
            test_no_add_wait_caught;
          Alcotest.test_case "eager accessor caught" `Quick
            test_eager_accessor_caught;
          Alcotest.test_case "execute wait boundary" `Quick
            test_execute_wait_boundary;
          Alcotest.test_case "report shape" `Quick test_report_shape;
          Alcotest.test_case "n < 4 refused by name" `Quick
            test_report_refuses_small_model;
          Alcotest.test_case "report refuses an X outside [0, d - eps]" `Quick
            test_report_refuses_x_outside_range;
          Alcotest.test_case "legs round-trip and rerun" `Quick
            test_legs_round_trip;
          Alcotest.test_case "op refs resolve to the draws" `Quick
            test_op_refs_resolve;
        ] );
      ( "paper finding",
        [
          Alcotest.test_case "queue counterexample" `Quick
            test_paper_verbatim_counterexample;
          Alcotest.test_case "register counterexample" `Quick
            test_paper_verbatim_register;
          Alcotest.test_case "queue: supplied order refused at the accessor"
            `Quick test_queue_order_finding;
          Alcotest.test_case
            "register: supplied order refused at the accessor" `Quick
            test_register_order_finding;
        ] );
    ]
