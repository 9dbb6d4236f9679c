(* Tests for Algorithm 1 (Wtlw): exact per-class latencies (Lemma 4),
   linearizability under random and adversarial delay schedules for
   every data type, replica convergence, and the X parameter range. *)

let rat = Rat.make
let model = Sim.Model.make ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 3 1)
let x_default = rat 2 1
let offsets_zero = Array.make 4 Rat.zero
let offsets_skewed = [| Rat.zero; rat 3 2; rat (-3) 2; rat 1 2 |]

module type RUN = sig
  val name : string
  val run_all : unit -> unit
end

(* Generic battery, instantiated per data type. *)
module Battery (T : Spec.Data_type.S) = struct
  module R = Core.Runtime.Make (T)
  module Sem = Spec.Data_type.Semantics (T)

  let closed_loop ~seed = R.Closed_loop { per_proc = 10; think = rat 1 2; seed }

  let run ?(offsets = offsets_zero) ?(x = x_default) ~delay ~seed () =
    R.run
      (R.Config.make ~model ~offsets ~delay ~algorithm:(R.Wtlw { x })
         ~workload:(closed_loop ~seed) ())

  let assert_report name (report : R.report) =
    Alcotest.(check bool) (name ^ ": delays admissible") true
      report.delays_admissible;
    Alcotest.(check bool)
      (name ^ ": linearizable")
      true
      (Option.is_some report.linearization)

  (* Lemma 4: pure accessors take exactly d - X, pure mutators exactly
     X + eps, mixed operations at most d + eps with the bound attained
     in some run. *)
  let check_latencies name (report : R.report) =
    List.iter
      (fun (kind, (s : Core.Metrics.summary)) ->
        match kind with
        | Spec.Op_kind.Pure_accessor ->
            Alcotest.(check string)
              (name ^ ": AOP latency = d - X + eps (repaired)")
              (Rat.to_string (Rat.add (Rat.sub model.d x_default) model.eps))
              (Rat.to_string s.max);
            Alcotest.(check bool)
              (name ^ ": AOP latency constant")
              true (Rat.equal s.min s.max)
        | Spec.Op_kind.Pure_mutator ->
            Alcotest.(check string)
              (name ^ ": MOP latency = X + eps")
              (Rat.to_string (Rat.add x_default model.eps))
              (Rat.to_string s.max);
            Alcotest.(check bool)
              (name ^ ": MOP latency constant")
              true (Rat.equal s.min s.max)
        | Spec.Op_kind.Mixed ->
            Alcotest.(check bool)
              (name ^ ": OOP latency <= d + eps")
              true
              (Rat.le s.max (Rat.add model.d model.eps)))
      report.by_kind

  let test_random_delays () =
    List.iter
      (fun seed ->
        let report = run ~delay:(Sim.Net.random_model ~seed model) ~seed () in
        assert_report (Printf.sprintf "random seed %d" seed) report;
        check_latencies "random" report)
      [ 1; 2; 3 ]

  let test_extreme_delays () =
    List.iter
      (fun (label, delay) ->
        let report = run ~delay ~seed:5 () in
        assert_report label report;
        check_latencies label report)
      [
        ("all max delay", Sim.Net.max_delay_model model);
        ("all min delay", Sim.Net.min_delay_model model);
      ]

  let test_skewed_clocks () =
    let report =
      run ~offsets:offsets_skewed ~delay:(Sim.Net.random_model ~seed:9 model)
        ~seed:9 ()
    in
    assert_report "skewed clocks" report;
    check_latencies "skewed clocks" report

  let test_asymmetric_matrix () =
    (* Fast one way, slow the other. *)
    let m = Sim.Net.uniform_matrix ~n:4 (rat 6 1) in
    m.(0).(1) <- rat 10 1;
    m.(1).(2) <- rat 10 1;
    m.(3).(0) <- rat 10 1;
    let report = run ~delay:(Sim.Net.matrix m) ~seed:13 () in
    assert_report "asymmetric matrix" report

  let test_x_extremes () =
    List.iter
      (fun x ->
        let report =
          R.run
            (R.Config.make ~model ~offsets:offsets_zero
               ~delay:(Sim.Net.random_model ~seed:3 model)
               ~algorithm:(R.Wtlw { x }) ~workload:(closed_loop ~seed:3) ())
        in
        Alcotest.(check bool)
          (Printf.sprintf "X=%s linearizable" (Rat.to_string x))
          true
          (Option.is_some report.linearization))
      [ Rat.zero; Rat.sub model.d model.eps ]

  let run_all () =
    test_random_delays ();
    test_extreme_delays ();
    test_skewed_clocks ();
    test_asymmetric_matrix ();
    test_x_extremes ()
end

module Battery_register = struct
  module B = Battery (Spec.Register)

  let name = "register"
  let run_all = B.run_all
end

module Battery_rmw = struct
  module B = Battery (Spec.Rmw_register)

  let name = "rmw-register"
  let run_all = B.run_all
end

module Battery_queue = struct
  module B = Battery (Spec.Fifo_queue)

  let name = "fifo-queue"
  let run_all = B.run_all
end

module Battery_stack = struct
  module B = Battery (Spec.Stack_type)

  let name = "stack"
  let run_all = B.run_all
end

module Battery_tree = struct
  module B = Battery (Spec.Tree_type)

  let name = "rooted-tree"
  let run_all = B.run_all
end

module Battery_set = struct
  module B = Battery (Spec.Set_type)

  let name = "int-set"
  let run_all = B.run_all
end

module Battery_counter = struct
  module B = Battery (Spec.Counter_type)

  let name = "counter"
  let run_all = B.run_all
end

module Battery_pq = struct
  module B = Battery (Spec.Priority_queue)

  let name = "priority-queue"
  let run_all = B.run_all
end

module Battery_log = struct
  module B = Battery (Spec.Log_type)

  let name = "log"
  let run_all = B.run_all
end

let batteries : (module RUN) list =
  [
    (module Battery_register);
    (module Battery_rmw);
    (module Battery_queue);
    (module Battery_stack);
    (module Battery_tree);
    (module Battery_set);
    (module Battery_counter);
    (module Battery_pq);
    (module Battery_log);
  ]

(* --- targeted deterministic scenarios on the register --- *)

module Reg = Spec.Register
module Algo = Core.Wtlw.Make (Reg)
module Check = Lin.Checker.Make (Reg)

let test_x_validation () =
  let attempt x =
    match
      Algo.create ~model ~x ~offsets:offsets_zero
        ~delay:(Sim.Net.constant (rat 8 1))
        ()
    with
    | exception Invalid_argument _ -> `Rejected
    | _ -> `Accepted
  in
  Alcotest.(check bool) "negative X rejected" true
    (attempt (rat (-1) 1) = `Rejected);
  Alcotest.(check bool) "X > d - eps rejected" true
    (attempt (rat 8 1) = `Rejected);
  Alcotest.(check bool) "X = d - eps accepted" true
    (attempt (rat 7 1) = `Accepted)

(* [Core.Wtlw.check_x] is the one X-range test: every site that
   refuses an X adds only its own prefix to its text, and the reliable
   leg names the inflated model whose range it used. *)
let test_x_refusal_texts () =
  let module R = Core.Runtime.Make (Reg) in
  let outside = "X = 8 lies outside [0, d - eps] = [0, 7]" in
  let refused label want f =
    Alcotest.check_raises label (Invalid_argument want) (fun () ->
        ignore (f ()))
  in
  Alcotest.(check (result unit string))
    "X = d - eps" (Ok ())
    (Core.Wtlw.check_x model (rat 7 1));
  Alcotest.(check (result unit string))
    "X above d - eps" (Error outside)
    (Core.Wtlw.check_x model (rat 8 1));
  refused "Wtlw.create" ("Wtlw.create: " ^ outside) (fun () ->
      Algo.create ~model ~x:(rat 8 1) ~offsets:offsets_zero
        ~delay:(Sim.Net.constant (rat 8 1))
        ());
  refused "Theorems" ("Theorems: " ^ outside) (fun () ->
      Bounds.Theorems.ub_pure_mutator model ~x:(rat 8 1));
  let config x =
    R.Config.make ~model ~offsets:offsets_zero
      ~delay:(Sim.Net.constant (rat 8 1))
      ~algorithm:(R.Wtlw { x })
      ~workload:(R.Closed_loop { per_proc = 1; think = Rat.one; seed = 1 })
      ()
  in
  refused "Runtime, plain leg" ("Wtlw.create: " ^ outside) (fun () ->
      R.run (config (rat 8 1)));
  let inflated =
    Core.Reliable.inflated_model (Core.Reliable.default_config model) model
  in
  let far = Rat.add (Rat.sub inflated.d inflated.eps) Rat.one in
  refused "Runtime, reliable leg"
    (Printf.sprintf
       "Runtime.run: X = %s lies outside [0, d - eps] = [0, %s] of the \
        inflated model"
       (Rat.to_string far)
       (Rat.to_string (Rat.sub inflated.d inflated.eps)))
    (fun () -> R.run (R.Config.reliable (config far)));
  let wide = Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) ~eps:(rat 100 1) in
  Alcotest.(check (result unit string))
    "eps above d"
    (Error "X = -44: eps = 100 exceeds d = 12, so no X lies in [0, d - eps]")
    (Core.Wtlw.check_x wide (rat (-44) 1))

(* A read invoked after a write's response must return the new value
   even across processes — the crux of the X-backdating mechanism. *)
let test_read_sees_completed_write () =
  List.iter
    (fun x ->
      let cluster =
        Algo.create ~model ~x ~offsets:offsets_skewed
          ~delay:(Sim.Net.max_delay_model model) ()
      in
      let mutator_latency = Rat.add x model.eps in
      Sim.Engine.schedule_invoke cluster.engine ~at:Rat.zero ~proc:0
        (Reg.Write 42);
      (* Invoke the read the instant the write completes. *)
      Sim.Engine.schedule_invoke cluster.engine ~at:mutator_latency ~proc:1
        Reg.Read;
      Sim.Engine.run cluster.engine;
      let ops = Sim.Trace.operations (Sim.Engine.trace cluster.engine) in
      let read = List.find (fun (o : Check.op) -> o.inv = Reg.Read) ops in
      Alcotest.(check bool)
        (Printf.sprintf "X=%s: read after write sees 42" (Rat.to_string x))
        true
        (read.resp = Reg.Value 42);
      Alcotest.(check bool) "history linearizable" true
        (Check.is_linearizable ops))
    [ Rat.zero; rat 2 1; rat 7 1 ]

let test_replicas_converge () =
  let cluster =
    Algo.create ~model ~x:x_default ~offsets:offsets_skewed
      ~delay:(Sim.Net.random_model ~seed:21 model)
      ()
  in
  List.iteri
    (fun i v ->
      Sim.Engine.schedule_invoke cluster.engine
        ~at:(rat (i * 20) 1)
        ~proc:(i mod 4) (Reg.Write v))
    [ 3; 1; 4; 1; 5; 9; 2; 6 ];
  Sim.Engine.run cluster.engine;
  Alcotest.(check bool) "replicas converged" true
    (Algo.replicas_converged cluster);
  Alcotest.(check bool) "final value is last write" true
    (Reg.equal_state (Algo.replica_state cluster 0) 6)

(* Concurrent writes at all processes: every replica must apply them in
   the same (timestamp) order. *)
let test_concurrent_writes_converge () =
  let cluster =
    Algo.create ~model ~x:x_default ~offsets:offsets_skewed
      ~delay:(Sim.Net.random_model ~seed:33 model)
      ()
  in
  for proc = 0 to 3 do
    Sim.Engine.schedule_invoke cluster.engine ~at:Rat.zero ~proc
      (Reg.Write (100 + proc))
  done;
  Sim.Engine.run cluster.engine;
  Alcotest.(check bool) "concurrent writes converge" true
    (Algo.replicas_converged cluster);
  Alcotest.(check bool) "history linearizable" true
    (Check.is_linearizable
       (Sim.Trace.operations (Sim.Engine.trace cluster.engine)))

(* Property: for random seeds, the whole pipeline stays linearizable
   with correct latencies on the queue (the paper's running example). *)
module QR = Core.Runtime.Make (Spec.Fifo_queue)

let prop_queue_runs_linearizable =
  QCheck.Test.make ~name:"queue closed-loop runs linearizable" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let report =
        QR.run
          (QR.Config.make ~model ~offsets:offsets_skewed
             ~delay:(Sim.Net.random_model ~seed model)
             ~algorithm:(QR.Wtlw { x = x_default })
             ~workload:(QR.Closed_loop { per_proc = 8; think = rat 1 3; seed })
             ())
      in
      report.delays_admissible && Option.is_some report.linearization)

(* The To_Execute heap against a persistent map, the structure it
   replaced: over a random interleaving of adds and drains up to a
   timestamp, both must drain the same (timestamp, timer id, value)
   sequences, so an entry's id travels with it through every sift.
   Times are small so that many timestamps tie on time and are ordered
   by process id alone.  With [~repeats] timestamps may recur, as a
   duplicated message's does; the map then replaces the queued id and
   value, and so must the heap. *)
module Ts_map = Map.Make (Core.Timestamp)

let heap_agrees_with_map ~repeats =
  let gen_ts =
    QCheck.Gen.(
      map2
        (fun n p -> Core.Timestamp.make ~time:(rat n 2) ~proc:p)
        (int_range 0 12) (int_range 0 3))
  in
  let gen_step =
    QCheck.Gen.(
      frequency [ (3, map (fun ts -> `Add ts) gen_ts); (1, map (fun ts -> `Drain ts) gen_ts) ])
  in
  let print_step = function
    | `Add ts -> Fmt.str "add %a" Core.Timestamp.pp ts
    | `Drain ts -> Fmt.str "drain %a" Core.Timestamp.pp ts
  in
  QCheck.Test.make
    ~name:
      (if repeats then "to_execute heap = map, repeated timestamps"
       else "to_execute heap = map, unique timestamps")
    ~count:500
    (QCheck.make ~print:(QCheck.Print.list print_step)
       QCheck.Gen.(list_size (int_range 0 80) gen_step))
    (fun steps ->
      let seen = Hashtbl.create 16 in
      (* Without repeats, a timestamp is added at most once. *)
      let steps =
        List.filter
          (function
            | `Drain _ -> true
            | `Add ts ->
                repeats
                || (not (Hashtbl.mem seen ts))
                   && (Hashtbl.replace seen ts ();
                       true))
          steps
      in
      let heap = Core.Timestamp.Heap.create () in
      let map = ref Ts_map.empty in
      List.for_all Fun.id
        (List.mapi
           (fun i step ->
             match step with
             | `Add ts ->
                 (* a timer id unlike the value, as the engine's are *)
                 let id = 1000 - (7 * i) in
                 Core.Timestamp.Heap.add heap ts ~id i;
                 map := Ts_map.add ts (id, i) !map;
                 Core.Timestamp.Heap.length heap = Ts_map.cardinal !map
             | `Drain upto ->
                 let from_heap = ref [] in
                 Core.Timestamp.Heap.drain heap ~upto
                   (fun acc () ts id v -> acc := (ts, (id, v)) :: !acc)
                   from_heap ();
                 let below, above =
                   Ts_map.partition (fun ts _ -> Core.Timestamp.le ts upto) !map
                 in
                 map := above;
                 List.rev !from_heap = Ts_map.bindings below)
           steps))

(* What one mutator costs the protocol layer at n = 4, counted from
   its invocation through its copy being queued at every process (the
   three received copies and the invoker's own, after its [Add] timer):
   the timestamp (3 words), the broadcast [Op] block (3) and the [Add]
   tag that points at it (2), plus a pure mutator's [Respond_ack] tag
   (2).  Each copy is a heap slot and a timer whose tag is the [Op]
   block itself, so queueing a received copy allocates nothing.  A
   first round warms the queues and the recording ctx. *)
module QW = Core.Wtlw.Make (Spec.Fifo_queue)

let test_mutator_allocation () =
  let handlers =
    QW.protocol
      ~timing:(Core.Wtlw.default_timing model ~x:x_default)
      (QW.fresh_states ~n:4)
  in
  let h = Hand_ctx.create ~n:4 in
  let follow round inv =
    Hand_ctx.follow h handlers ~time:(Rat.of_int round) ~after_invoke:true inv
  in
  ignore (follow 1 (Spec.Fifo_queue.Enqueue 1));
  let check name inv ~invoke =
    let at_invoke, queueing = follow 2 inv in
    Alcotest.(check (float 0.)) (name ^ ": invocation") invoke at_invoke;
    Alcotest.(check (float 0.)) (name ^ ": queueing every copy") 0. queueing
  in
  check "pure mutator" (Spec.Fifo_queue.Enqueue 7) ~invoke:10.;
  check "mixed" Spec.Fifo_queue.Dequeue ~invoke:8.

let () =
  Alcotest.run "wtlw"
    [
      ( "batteries",
        List.map
          (fun (module B : RUN) ->
            Alcotest.test_case B.name `Quick (fun () -> B.run_all ()))
          batteries );
      ( "scenarios",
        [
          Alcotest.test_case "X validation" `Quick test_x_validation;
          Alcotest.test_case "X refusal texts" `Quick test_x_refusal_texts;
          Alcotest.test_case "read sees completed write" `Quick
            test_read_sees_completed_write;
          Alcotest.test_case "replicas converge" `Quick test_replicas_converge;
          Alcotest.test_case "concurrent writes converge" `Quick
            test_concurrent_writes_converge;
          Alcotest.test_case "a mutator allocates its message, not copies"
            `Quick test_mutator_allocation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_queue_runs_linearizable;
            heap_agrees_with_map ~repeats:false;
            heap_agrees_with_map ~repeats:true;
          ]
      );
    ]
