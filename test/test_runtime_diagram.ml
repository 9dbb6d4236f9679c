(* Tests for the Runtime harness (report invariants, both workload
   shapes, all algorithms) and the ASCII run diagrams. *)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 10 1) ~u:(rat 4 1)
let offsets = [| Rat.zero; rat 1 1; rat (-1) 1; rat 3 2 |]

module R = Core.Runtime.Make (Spec.Register)

let run ?(check = true) ~algorithm ~workload () =
  R.run
    (R.Config.make ~check ~model ~offsets
       ~delay:(Sim.Net.random_model ~seed:3 model)
       ~algorithm ~workload ())

let closed = R.Closed_loop { per_proc = 5; think = rat 1 2; seed = 4 }

let test_algorithm_names () =
  Alcotest.(check string) "wtlw name" "wtlw(X=2)"
    (R.algorithm_name (R.Wtlw { x = rat 2 1 }));
  Alcotest.(check string) "centralized name" "centralized"
    (R.algorithm_name R.Centralized);
  Alcotest.(check string) "tob name" "total-order-broadcast"
    (R.algorithm_name R.Tob)

let test_report_invariants () =
  List.iter
    (fun algorithm ->
      let report = run ~algorithm ~workload:closed () in
      Alcotest.(check int)
        (report.algorithm ^ ": 4 procs x 5 ops")
        20
        (List.length report.operations);
      Alcotest.(check bool) (report.algorithm ^ " ok") true (R.ok report);
      (* by_op latency counts sum to the number of operations. *)
      let total =
        List.fold_left
          (fun acc (_, (s : Core.Metrics.summary)) -> acc + s.count)
          0 report.by_op
      in
      Alcotest.(check int) (report.algorithm ^ ": counts add up") 20 total;
      (* by_kind is a coarsening of by_op: same total. *)
      let total_kind =
        List.fold_left
          (fun acc (_, (s : Core.Metrics.summary)) -> acc + s.count)
          0 report.by_kind
      in
      Alcotest.(check int) (report.algorithm ^ ": kind counts add up") 20
        total_kind)
    [ R.Wtlw { x = rat 2 1 }; R.Centralized; R.Tob ]

let test_schedule_workload () =
  let schedule =
    [
      Core.Workload.entry ~proc:0 ~at:Rat.zero (Spec.Register.Write 9);
      Core.Workload.entry ~proc:1 ~at:(rat 30 1) Spec.Register.Read;
    ]
  in
  let report =
    run ~algorithm:(R.Wtlw { x = rat 2 1 }) ~workload:(R.Schedule schedule) ()
  in
  Alcotest.(check int) "two operations" 2 (List.length report.operations);
  let read =
    List.find
      (fun (o : (Spec.Register.invocation, Spec.Register.response) Sim.Trace.operation) ->
        o.inv = Spec.Register.Read)
      report.operations
  in
  Alcotest.(check bool) "read observed the write" true
    (read.resp = Spec.Register.Value 9)

let test_check_flag () =
  let report = run ~check:false ~algorithm:R.Tob ~workload:closed () in
  Alcotest.(check bool) "no linearization computed" true
    (report.linearization = None);
  Alcotest.(check bool) "delays still validated" true report.delays_admissible

(* Regression: [ok] must reject a run with a pending invocation, even
   when everything that did complete is linearizable and delays are
   fine.  (It used to look only at admissibility and the
   linearization.) *)
let test_ok_rejects_pending () =
  let trace : (unit, Spec.Register.invocation, Spec.Register.response) Sim.Trace.t
      =
    Sim.Trace.create ()
  in
  Sim.Trace.record trace
    (Invoke { time = Rat.zero; proc = 0; inv = Spec.Register.Write 1 });
  Sim.Trace.record trace
    (Respond
       {
         time = rat 1 1;
         proc = 0;
         inv = Spec.Register.Write 1;
         resp = Spec.Register.Ack;
       });
  Sim.Trace.record trace
    (Invoke { time = rat 2 1; proc = 1; inv = Spec.Register.Read });
  (* p1's read never responds. *)
  let report =
    R.report_of_trace ~model ~algorithm:"hand-built" ~check:true trace
  in
  Alcotest.(check int) "one completed op" 1 (List.length report.operations);
  Alcotest.(check int) "one pending" 1 report.pending;
  Alcotest.(check bool) "delays admissible" true report.delays_admissible;
  Alcotest.(check bool) "linearization found" true
    (Option.is_some report.linearization);
  Alcotest.(check bool) "ok is false with a pending invocation" false
    (R.ok report);
  (* Sanity: a complete run is ok. *)
  let good = run ~algorithm:R.Centralized ~workload:closed () in
  Alcotest.(check int) "no pending" 0 good.pending;
  Alcotest.(check bool) "complete run ok" true (R.ok good)

(* [Runtime.run] never retains events; retention lives at the cluster.
   The same Algorithm 1 run with and without the event list gives the
   same report from its trace, and matches what [Runtime.run] reports
   for it in operations, counts and admissibility. *)
let test_retention_off_report_identical () =
  let module W = Core.Wtlw.Make (Spec.Register) in
  let go retain_events =
    let cluster =
      W.create ~retain_events ~model ~x:(rat 2 1) ~offsets
        ~delay:(Sim.Net.random_model ~seed:3 model)
        ()
    in
    Closed_loop.run cluster.engine ~n:4 ~per_proc:5 ~think:(rat 1 2) ~seed:4
      Spec.Register.gen_invocation
    |> R.report_of_trace ~model ~algorithm:"wtlw(X=2)" ~check:true
  in
  let retained = go true and streamed = go false in
  Alcotest.(check bool) "reports identical" true (retained = streamed);
  Alcotest.(check bool) "streamed run ok" true (R.ok streamed);
  let via_runtime = run ~algorithm:(R.Wtlw { x = rat 2 1 }) ~workload:closed () in
  Alcotest.(check bool) "same run as Runtime.run" true
    (via_runtime.operations = streamed.operations
    && via_runtime.messages = streamed.messages
    && via_runtime.events = streamed.events
    && via_runtime.pending = streamed.pending
    && via_runtime.delays_admissible = streamed.delays_admissible)

let test_pp_report_mentions_everything () =
  let report = run ~algorithm:(R.Wtlw { x = rat 2 1 }) ~workload:closed () in
  let rendered = Format.asprintf "%a" R.pp_report report in
  let contains needle =
    let h = String.length rendered and n = String.length needle in
    let rec scan i =
      i + n <= h && (String.sub rendered i n = needle || scan (i + 1))
    in
    n = 0 || scan 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains needle))
    [ "wtlw"; "read"; "write"; "pure accessor"; "pure mutator"; "linearizable" ]

(* --- diagrams --- *)

let test_diagram_empty () =
  Alcotest.(check string) "empty diagram" "(empty run)"
    (Bounds.Diagram.render ~n:2 [])

let test_diagram_layout () =
  let intervals =
    [
      Bounds.Diagram.interval ~proc:0 ~label:"a" ~start:Rat.zero
        ~finish:(rat 10 1);
      Bounds.Diagram.interval ~proc:1 ~label:"b" ~start:(rat 5 1)
        ~finish:(rat 20 1);
    ]
  in
  let rendered = Bounds.Diagram.render ~n:3 intervals in
  let lines = String.split_on_char '\n' rendered in
  (* One row per process plus the time scale line. *)
  Alcotest.(check int) "3 process rows + time line" 4 (List.length lines);
  let row0 = List.nth lines 0 and row1 = List.nth lines 1 in
  Alcotest.(check bool) "p0 row starts with bracket" true
    (String.length row0 > 6 && row0.[5] = '[');
  Alcotest.(check bool) "labels inscribed" true
    (String.contains row0 'a' && String.contains row1 'b');
  Alcotest.(check bool) "time scale present" true
    (let last = List.nth lines 3 in
     String.length last > 0 && String.contains last 't')

let test_diagram_of_operations () =
  let ops : (string, unit) Sim.Trace.operation list =
    [
      {
        proc = 0;
        inv = "deq";
        resp = ();
        inv_time = Rat.zero;
        resp_time = rat 4 1;
      };
      {
        proc = 2;
        inv = "enq";
        resp = ();
        inv_time = rat 2 1;
        resp_time = rat 6 1;
      };
    ]
  in
  let intervals = Bounds.Diagram.of_operations ~label:Fun.id ops in
  Alcotest.(check int) "two intervals" 2 (List.length intervals);
  let i0 = List.hd intervals in
  Alcotest.(check int) "proc kept" 0 i0.proc;
  Alcotest.(check string) "label kept" "deq" i0.label;
  (* Zero-length runs render without dividing by zero. *)
  let instant =
    [
      Bounds.Diagram.interval ~proc:0 ~label:"x" ~start:Rat.one
        ~finish:Rat.one;
    ]
  in
  Alcotest.(check bool) "instant interval renders" true
    (String.length (Bounds.Diagram.render ~n:1 instant) > 0)

let () =
  Alcotest.run "runtime_diagram"
    [
      ( "runtime",
        [
          Alcotest.test_case "algorithm names" `Quick test_algorithm_names;
          Alcotest.test_case "report invariants" `Quick test_report_invariants;
          Alcotest.test_case "schedule workload" `Quick test_schedule_workload;
          Alcotest.test_case "check flag" `Quick test_check_flag;
          Alcotest.test_case "ok rejects pending invocations" `Quick
            test_ok_rejects_pending;
          Alcotest.test_case "retention-off report identical" `Quick
            test_retention_off_report_identical;
          Alcotest.test_case "pp report" `Quick
            test_pp_report_mentions_everything;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "empty" `Quick test_diagram_empty;
          Alcotest.test_case "layout" `Quick test_diagram_layout;
          Alcotest.test_case "of operations" `Quick test_diagram_of_operations;
        ] );
    ]
