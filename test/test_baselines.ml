(* Tests for the folklore baselines: the centralized algorithm and the
   clock-based total-order broadcast. *)

let rat = Rat.make
let model = Sim.Model.make ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 3 1)
let offsets = [| Rat.zero; rat 3 2; rat (-3) 2; rat 1 2 |]

module R = Core.Runtime.Make (Spec.Fifo_queue)
module RegR = Core.Runtime.Make (Spec.Register)

let run_queue ~algorithm ~seed =
  R.run
    (R.Config.make ~model ~offsets
       ~delay:(Sim.Net.random_model ~seed model)
       ~algorithm
       ~workload:(R.Closed_loop { per_proc = 10; think = rat 1 2; seed })
       ())

let max_latency (report : R.report) =
  Rat.max_list
    (List.map (fun (_, (s : Core.Metrics.summary)) -> s.max) report.by_kind)

let test_centralized_linearizable () =
  List.iter
    (fun seed ->
      let report = run_queue ~algorithm:R.Centralized ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "centralized seed %d linearizable" seed)
        true
        (Option.is_some report.linearization))
    [ 1; 2; 3; 4 ]

let test_centralized_latency_bound () =
  let report = run_queue ~algorithm:R.Centralized ~seed:7 in
  Alcotest.(check bool) "latency <= 2d" true
    (Rat.le (max_latency report) (Rat.mul_int model.d 2));
  (* The bound is attained under all-max delays by a non-coordinator. *)
  let worst =
    R.run
      (R.Config.make ~model ~offsets:(Array.make 4 Rat.zero)
         ~delay:(Sim.Net.max_delay_model model) ~algorithm:R.Centralized
         ~workload:
           (R.Schedule
              [
                Core.Workload.entry ~proc:1 ~at:Rat.zero
                  (Spec.Fifo_queue.Enqueue 1);
              ])
         ())
  in
  Alcotest.(check string) "worst case exactly 2d" "20"
    (Rat.to_string (max_latency worst))

let test_centralized_coordinator_free () =
  (* Operations at the coordinator itself are instantaneous. *)
  let report =
    R.run
      (R.Config.make ~model ~offsets:(Array.make 4 Rat.zero)
         ~delay:(Sim.Net.max_delay_model model) ~algorithm:R.Centralized
         ~workload:
           (R.Schedule
              [
                Core.Workload.entry ~proc:0 ~at:Rat.zero
                  (Spec.Fifo_queue.Enqueue 1);
              ])
         ())
  in
  Alcotest.(check string) "coordinator op takes 0" "0"
    (Rat.to_string (max_latency report))

let test_tob_linearizable () =
  List.iter
    (fun seed ->
      let report = run_queue ~algorithm:R.Tob ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "tob seed %d linearizable" seed)
        true
        (Option.is_some report.linearization))
    [ 1; 2; 3; 4 ]

let test_tob_latency_exact () =
  (* Every operation (accessor or mutator) takes exactly d + eps. *)
  let report = run_queue ~algorithm:R.Tob ~seed:11 in
  List.iter
    (fun (kind, (s : Core.Metrics.summary)) ->
      Alcotest.(check string)
        (Spec.Op_kind.to_string kind ^ " takes d + eps")
        (Rat.to_string (Rat.add model.d model.eps))
        (Rat.to_string s.max);
      Alcotest.(check bool) "constant" true (Rat.equal s.min s.max))
    report.by_kind

(* The headline comparison: with any X, the paper's algorithm beats the
   folklore baselines on pure accessors AND pure mutators, and never
   loses on mixed operations. *)
let test_wtlw_beats_baselines () =
  let x = rat 2 1 in
  let wtlw = run_queue ~algorithm:(R.Wtlw { x }) ~seed:17 in
  let tob = run_queue ~algorithm:R.Tob ~seed:17 in
  let kind_max (report : R.report) kind =
    match List.assoc_opt kind report.by_kind with
    | Some (s : Core.Metrics.summary) -> s.max
    | None -> Alcotest.failf "missing kind in report"
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Spec.Op_kind.to_string kind ^ ": wtlw strictly faster than TOB")
        true
        (Rat.lt (kind_max wtlw kind) (kind_max tob kind)))
    [ Spec.Op_kind.Pure_accessor; Spec.Op_kind.Pure_mutator ];
  Alcotest.(check bool) "mixed no slower than TOB" true
    (Rat.le (kind_max wtlw Spec.Op_kind.Mixed) (kind_max tob Spec.Op_kind.Mixed));
  Alcotest.(check bool) "everything beats centralized worst case 2d" true
    (Rat.lt (max_latency wtlw) (Rat.mul_int model.d 2))

(* Cross-algorithm agreement: the same sequential schedule produces the
   same responses under all three algorithms. *)
let test_cross_algorithm_agreement () =
  let schedule =
    List.mapi
      (fun i inv -> Core.Workload.entry ~proc:(i mod 4) ~at:(rat (i * 30) 1) inv)
      Spec.Register.[ Write 1; Read; Write 2; Read; Write 3; Read ]
  in
  let responses algorithm =
    let report =
      RegR.run
        (RegR.Config.make ~model ~offsets
           ~delay:(Sim.Net.random_model ~seed:5 model)
           ~algorithm ~workload:(RegR.Schedule schedule) ())
    in
    List.map
      (fun (o : (Spec.Register.invocation, Spec.Register.response) Sim.Trace.operation) ->
        o.resp)
      report.operations
  in
  let wtlw = responses (RegR.Wtlw { x = rat 2 1 }) in
  let central = responses RegR.Centralized in
  let tob = responses RegR.Tob in
  Alcotest.(check bool) "wtlw = centralized" true (wtlw = central);
  Alcotest.(check bool) "wtlw = tob" true (wtlw = tob)

(* Replica/master state invariants after quiescence. *)
let test_state_invariants () =
  let module TobQ = Core.Tob.Make (Spec.Register) in
  let module CenQ = Core.Centralized.Make (Spec.Register) in
  let writes = [ 3; 1; 4; 1; 5 ] in
  let tob = TobQ.create ~model ~offsets ~delay:(Sim.Net.random_model ~seed:8 model) () in
  List.iteri
    (fun i v ->
      Sim.Engine.schedule_invoke tob.engine ~at:(rat (i * 30) 1)
        ~proc:(i mod 4) (Spec.Register.Write v))
    writes;
  Sim.Engine.run tob.engine;
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "tob replica %d holds 5" i)
        true
        (Spec.Register.equal_state (TobQ.replica_state tob i) 5))
    [ 0; 1; 2; 3 ];
  let cen = CenQ.create ~model ~offsets ~delay:(Sim.Net.random_model ~seed:8 model) () in
  List.iteri
    (fun i v ->
      Sim.Engine.schedule_invoke cen.engine ~at:(rat (i * 30) 1)
        ~proc:(i mod 4) (Spec.Register.Write v))
    writes;
  Sim.Engine.run cen.engine;
  Alcotest.(check bool) "centralized master holds 5" true (CenQ.master cen = 5)

(* Both baselines must be linearizable for every bundled data type. *)
let test_baselines_all_types () =
  let check_type (type s i r) name
      (module T : Spec.Data_type.S
        with type state = s
         and type invocation = i
         and type response = r) =
    let module RT = Core.Runtime.Make (T) in
    List.iter
      (fun algorithm ->
        let report =
          RT.run
            (RT.Config.make ~model ~offsets
               ~delay:(Sim.Net.random_model ~seed:6 model)
               ~algorithm
               ~workload:
                 (RT.Closed_loop { per_proc = 6; think = rat 1 2; seed = 6 })
               ())
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s / %s linearizable" name report.algorithm)
          true (RT.ok report))
      [ RT.Centralized; RT.Tob ]
  in
  check_type "register" (module Spec.Register);
  check_type "rmw-register" (module Spec.Rmw_register);
  check_type "stack" (module Spec.Stack_type);
  check_type "tree" (module Spec.Tree_type);
  check_type "set" (module Spec.Set_type);
  check_type "counter" (module Spec.Counter_type);
  check_type "priority-queue" (module Spec.Priority_queue);
  check_type "log" (module Spec.Log_type)

(* What one operation costs the total-order baseline's protocol layer
   at n = 4, counted from its invocation through its copy being queued
   at every process: the timestamp (3 words) and the broadcast [Op]
   block (3), which is also each copy's execute tag, the invoker's own
   included.  Queueing a received copy allocates nothing.  A first
   round warms the queues and the recording ctx. *)
let test_tob_allocation () =
  let module B = Core.Tob.Make (Spec.Fifo_queue) in
  let handlers = B.protocol ~model (B.fresh_states ~n:4) in
  let h = Hand_ctx.create ~n:4 in
  let follow round inv =
    Hand_ctx.follow h handlers ~time:(Rat.of_int round) ~after_invoke:false
      inv
  in
  ignore (follow 1 (Spec.Fifo_queue.Enqueue 1));
  List.iter
    (fun (name, inv) ->
      let at_invoke, queueing = follow 2 inv in
      Alcotest.(check (float 0.)) (name ^ ": invocation") 6. at_invoke;
      Alcotest.(check (float 0.)) (name ^ ": queueing the copies") 0.
        queueing)
    [ ("mutator", Spec.Fifo_queue.Enqueue 7); ("accessor", Spec.Fifo_queue.Peek) ]

let () =
  Alcotest.run "baselines"
    [
      ( "centralized",
        [
          Alcotest.test_case "linearizable" `Quick test_centralized_linearizable;
          Alcotest.test_case "latency bound 2d" `Quick
            test_centralized_latency_bound;
          Alcotest.test_case "coordinator ops free" `Quick
            test_centralized_coordinator_free;
        ] );
      ( "total-order broadcast",
        [
          Alcotest.test_case "linearizable" `Quick test_tob_linearizable;
          Alcotest.test_case "latency exactly d+eps" `Quick
            test_tob_latency_exact;
          Alcotest.test_case "an operation allocates its message, not copies"
            `Quick test_tob_allocation;
        ] );
      ( "comparison",
        [
          Alcotest.test_case "wtlw beats baselines" `Quick
            test_wtlw_beats_baselines;
          Alcotest.test_case "cross-algorithm agreement" `Quick
            test_cross_algorithm_agreement;
          Alcotest.test_case "all data types" `Quick test_baselines_all_types;
          Alcotest.test_case "state invariants" `Quick test_state_invariants;
        ] );
    ]
