(* Shift-stress tests: the proofs' adversarial scenarios applied to
   Algorithm 1.  The algorithm meets the bounds, so whenever a shifted
   run remains admissible it must remain linearizable.

   Stress runs R2 = shift(R1, x) as a run of its own.  Each check below
   also holds it to the reference: R1 recorded with retained events
   (through [Wtlw.create], from R1's own invocations) and re-timed by
   [Shifting.shift_trace]. *)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1)
let x_param = rat 2 1

module Q = Spec.Fifo_queue
module Reg = Spec.Register

module Check (T : Spec.Data_type.S) = struct
  include Bounds.Stress.Make (T)
  module Algo = Core.Wtlw.Make (T)

  let render ops =
    List.sort compare
      (List.map
         (fun (op : _ Sim.Trace.operation) ->
           Format.asprintf "p%d [%s, %s] %a -> %a" op.proc
             (Rat.to_string op.inv_time)
             (Rat.to_string op.resp_time)
             T.pp_invocation op.inv T.pp_response op.resp)
         ops)

  (* shift(R1, x) by re-timing a retained trace of R1. *)
  let reference ~x_param ~matrix ~shift (base : report) =
    let cluster =
      Algo.create ~model ~x:x_param
        ~offsets:(Array.make model.n Rat.zero)
        ~delay:(Sim.Net.matrix matrix) ()
    in
    List.iter
      (fun { Core.Workload.proc; at; inv } ->
        Sim.Engine.schedule_invoke cluster.engine ~at ~proc inv)
      (Core.Workload.sort_schedule
         (List.map
            (fun (op : _ Sim.Trace.operation) ->
              Core.Workload.entry ~proc:op.proc ~at:op.inv_time op.inv)
            base.operations));
    Sim.Engine.run cluster.engine;
    let trace = Sim.Engine.trace cluster.engine in
    let shifted = Bounds.Shifting.shift_trace trace shift in
    ( Sim.Trace.operations trace,
      Sim.Trace.operations shifted,
      Sim.Trace.delays_admissible model shifted )

  (* R1 linearizable and the reference's R1; R2, when run, the
     reference's shift of R1, with its delays as admissible, and
     linearizable when admissible. *)
  let holds ?(x_param = x_param) ~matrix ~shift o =
    let r1, r2, delays_admissible = reference ~x_param ~matrix ~shift o.base in
    Option.is_some o.base.linearization
    && render r1 = render o.base.operations
    && ok o
    &&
    match o.shifted with
    | None -> true
    | Some r ->
        render r2 = render r.operations
        && r.delays_admissible = delays_admissible

  let assert_outcome ?x_param label ~matrix ~shift o =
    Alcotest.(check bool)
      (label ^ ": R1 linearizable, R2 = shift(R1, x), linearizable when \
                admissible")
      true
      (holds ?x_param ~matrix ~shift o)
end

module QStress = Check (Q)
module RegStress = Check (Reg)
module RmwStress = Check (Spec.Rmw_register)
module StackStress = Check (Spec.Stack_type)

let thm2 = Bounds.Adversary.Thm2.base_matrix model
let thm2_shift = Bounds.Adversary.Thm2.shift_vector model ~case:`Even
let thm3 ~k = Bounds.Adversary.Thm3.base_matrix model ~k
let thm3_shift ~k ~z = Bounds.Adversary.Thm3.shift_vector model ~k ~z
let thm4 = Bounds.Adversary.Thm4.d1_matrix model
let thm4_shift = Bounds.Adversary.Thm4.step3_shift model
let thm5 = Bounds.Adversary.Thm5.d_matrix model
let thm5_shift = Bounds.Adversary.Thm5.shift model

let test_thm2_scenario_queue () =
  let outcome =
    QStress.theorem2 ~model ~x_param
      ~rho:[ Q.Enqueue 1; Q.Enqueue 2 ]
      ~aop:Q.Peek ~op:Q.Dequeue ()
  in
  Alcotest.(check int) "all operations completed" 9
    (List.length outcome.base.operations);
  QStress.assert_outcome "thm2/queue" ~matrix:thm2 ~shift:thm2_shift outcome

let test_thm2_scenario_register () =
  let outcome =
    RegStress.theorem2 ~model ~x_param ~rho:[ Reg.Write 7 ] ~aop:Reg.Read
      ~op:(Reg.Write 9) ()
  in
  RegStress.assert_outcome "thm2/register" ~matrix:thm2 ~shift:thm2_shift
    outcome

(* At the optimal eps, Claim 3 makes every R2 admissible, so its
   linearizability is checked for every z, never skipped. *)
let test_thm3_scenario_all_z () =
  (* k = 4 concurrent enqueues, one per process, for every possible
     last-linearized process z. *)
  List.iter
    (fun z ->
      let outcome =
        QStress.theorem3 ~model ~x_param ~k:4 ~z ~rho:[ Q.Enqueue 0 ]
          ~instances:[ Q.Enqueue 1; Q.Enqueue 2; Q.Enqueue 3; Q.Enqueue 4 ]
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "z=%d ops" z)
        5
        (List.length outcome.base.operations);
      Alcotest.(check (option bool))
        (Printf.sprintf "z=%d R2 admissible and linearizable" z)
        (Some true)
        (Option.map
           (fun (r : QStress.report) ->
             r.delays_admissible && r.skew_admissible
             && Option.is_some r.linearization)
           outcome.shifted);
      QStress.assert_outcome
        (Printf.sprintf "thm3/z=%d" z)
        ~matrix:(thm3 ~k:4) ~shift:(thm3_shift ~k:4 ~z) outcome)
    [ 0; 1; 2; 3 ]

(* [repro claims -d 1000000000000]'s Figure 1 run: a schedule of four
   enqueues at d = 10^12 fits its horizon, though a million events of
   2 * 10^12 time units would not. *)
let test_thm3_figure_at_large_d () =
  let model =
    Sim.Model.make_optimal_eps ~n:4 ~d:(Rat.of_int 1_000_000_000_000)
      ~u:(rat 4 1)
  in
  let x_param = Rat.div_int (Rat.sub model.d model.eps) 3 in
  let outcome =
    QStress.theorem3 ~model ~x_param ~k:4 ~z:2 ~rho:[]
      ~instances:[ Q.Enqueue 1; Q.Enqueue 2; Q.Enqueue 3; Q.Enqueue 4 ]
      ()
  in
  Alcotest.(check int) "R1 ops" 4 (List.length outcome.base.operations);
  Alcotest.(check bool) "R1 linearizable" true
    (Option.is_some outcome.base.linearization)

let test_thm3_scenario_register_writes () =
  List.iter
    (fun z ->
      let outcome =
        RegStress.theorem3 ~model ~x_param ~k:3 ~z ~rho:[]
          ~instances:[ Reg.Write 1; Reg.Write 2; Reg.Write 3 ]
          ()
      in
      RegStress.assert_outcome
        (Printf.sprintf "thm3/writes z=%d" z)
        ~matrix:(thm3 ~k:3) ~shift:(thm3_shift ~k:3 ~z) outcome)
    [ 0; 1; 2 ]

let test_thm4_scenario_dequeue () =
  let outcome =
    QStress.theorem4 ~model ~x_param ~rho:[ Q.Enqueue 1 ] ~op0:Q.Dequeue
      ~op1:Q.Dequeue ()
  in
  QStress.assert_outcome "thm4/dequeue" ~matrix:thm4 ~shift:thm4_shift outcome

let test_thm4_scenario_rmw () =
  let outcome =
    RmwStress.theorem4 ~model ~x_param ~rho:[]
      ~op0:(Spec.Rmw_register.Rmw (Spec.Rmw_register.Fetch_and_add 1))
      ~op1:(Spec.Rmw_register.Rmw (Spec.Rmw_register.Fetch_and_add 2))
      ()
  in
  RmwStress.assert_outcome "thm4/rmw" ~matrix:thm4 ~shift:thm4_shift outcome

let test_thm4_scenario_pop () =
  let outcome =
    StackStress.theorem4 ~model ~x_param
      ~rho:[ Spec.Stack_type.Push 5 ]
      ~op0:Spec.Stack_type.Pop ~op1:Spec.Stack_type.Pop ()
  in
  StackStress.assert_outcome "thm4/pop" ~matrix:thm4 ~shift:thm4_shift outcome

let test_thm5_scenario_enqueue_peek () =
  let outcome =
    QStress.theorem5 ~model ~x_param ~rho:[] ~op0:(Q.Enqueue 1)
      ~op1:(Q.Enqueue 2) ~aop0:Q.Peek ~aop1:Q.Peek ~aop2:Q.Peek ()
  in
  Alcotest.(check int) "thm5 ops" 5 (List.length outcome.base.operations);
  QStress.assert_outcome "thm5/enqueue+peek" ~matrix:thm5 ~shift:thm5_shift
    outcome

(* Sweep over X to confirm the scenarios hold across the whole tradeoff
   range (X governs how close the accessors run to the bound). *)
let test_x_sweep () =
  let x_max = Rat.sub model.d model.eps in
  List.iter
    (fun frac ->
      let x = Rat.mul x_max (rat frac 4) in
      let outcome =
        QStress.theorem3 ~model ~x_param:x ~k:3 ~z:1 ~rho:[]
          ~instances:[ Q.Enqueue 1; Q.Enqueue 2; Q.Enqueue 3 ]
          ()
      in
      QStress.assert_outcome ~x_param:x
        (Printf.sprintf "x sweep %d/4" frac)
        ~matrix:(thm3 ~k:3) ~shift:(thm3_shift ~k:3 ~z:1) outcome)
    [ 0; 1; 2; 3; 4 ]

(* Property: random z / k / seeds over the theorem-3 scenario. *)
let prop_thm3_random =
  QCheck.Test.make ~name:"thm3 scenario over random k, z" ~count:30
    QCheck.(pair (int_range 2 4) (int_range 0 3))
    (fun (k, z_raw) ->
      let z = z_raw mod k in
      let instances = List.init k (fun i -> Q.Enqueue (i + 1)) in
      QStress.holds ~matrix:(thm3 ~k) ~shift:(thm3_shift ~k ~z)
        (QStress.theorem3 ~model ~x_param ~k ~z ~rho:[] ~instances ()))

let () =
  Alcotest.run "stress"
    [
      ( "scenarios",
        [
          Alcotest.test_case "thm2 queue" `Quick test_thm2_scenario_queue;
          Alcotest.test_case "thm2 register" `Quick test_thm2_scenario_register;
          Alcotest.test_case "thm3 all z" `Quick test_thm3_scenario_all_z;
          Alcotest.test_case "thm3 figure at d = 10^12" `Quick
            test_thm3_figure_at_large_d;
          Alcotest.test_case "thm3 register writes" `Quick
            test_thm3_scenario_register_writes;
          Alcotest.test_case "thm4 dequeue" `Quick test_thm4_scenario_dequeue;
          Alcotest.test_case "thm4 rmw" `Quick test_thm4_scenario_rmw;
          Alcotest.test_case "thm4 pop" `Quick test_thm4_scenario_pop;
          Alcotest.test_case "thm5 enqueue+peek" `Quick
            test_thm5_scenario_enqueue_peek;
          Alcotest.test_case "x sweep" `Quick test_x_sweep;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_thm3_random ] );
    ]
