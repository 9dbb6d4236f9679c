(* Tests for run traces: recording, operation extraction, delays. *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 2 1)

type msg = M of int

let record_sample (t : (msg, string, int) Sim.Trace.t) =
  Sim.Trace.record t (Invoke { time = Rat.zero; proc = 0; inv = "write" });
  Sim.Trace.record t
    (Send { time = Rat.zero; src = 0; dst = 1; seq = 0; delay = rat 8 1; msg = M 1 });
  Sim.Trace.record t
    (Timer_set { time = Rat.zero; proc = 0; id = 0; expiry = rat 5 1 });
  Sim.Trace.record t (Invoke { time = rat 1 1; proc = 1; inv = "read" });
  Sim.Trace.record t (Respond { time = rat 3 1; proc = 1; inv = "read"; resp = 7 });
  Sim.Trace.record t (Timer_fire { time = rat 5 1; proc = 0; id = 0 });
  Sim.Trace.record t (Respond { time = rat 5 1; proc = 0; inv = "write"; resp = 0 });
  Sim.Trace.record t (Deliver { time = rat 8 1; src = 0; dst = 1; msg = M 1 })

let sample_trace () =
  let t : (msg, string, int) Sim.Trace.t = Sim.Trace.create () in
  record_sample t;
  t

let test_operations () =
  let ops = Sim.Trace.operations (sample_trace ()) in
  Alcotest.(check int) "two operations" 2 (List.length ops);
  (* Sorted by invocation time. *)
  let first = List.hd ops in
  Alcotest.(check string) "first op is write" "write" first.inv;
  Alcotest.(check int) "first proc" 0 first.proc;
  Alcotest.(check string) "write latency 5" "5"
    (Rat.to_string (Rat.sub first.resp_time first.inv_time));
  let second = List.nth ops 1 in
  Alcotest.(check string) "second op" "read" second.inv;
  Alcotest.(check int) "read response" 7 second.resp

let test_pending () =
  let t : (msg, string, int) Sim.Trace.t = Sim.Trace.create () in
  Sim.Trace.record t (Invoke { time = Rat.zero; proc = 2; inv = "dangling" });
  Alcotest.(check int) "no completed ops" 0 (Sim.Trace.operation_count t);
  Alcotest.(check (list (pair int string)))
    "pending invocation" [ (2, "dangling") ]
    (Sim.Trace.pending_invocations t)

let test_overlap_rejected () =
  let t : (msg, string, int) Sim.Trace.t = Sim.Trace.create () in
  Sim.Trace.record t (Invoke { time = Rat.zero; proc = 0; inv = "a" });
  Sim.Trace.record t (Invoke { time = Rat.one; proc = 0; inv = "b" });
  Alcotest.check_raises "overlapping invocations"
    (Invalid_argument "Trace.operations: overlapping invocations at a process")
    (fun () -> ignore (Sim.Trace.operations t));
  let t2 : (msg, string, int) Sim.Trace.t = Sim.Trace.create () in
  Sim.Trace.record t2 (Respond { time = Rat.zero; proc = 0; inv = "a"; resp = 1 });
  Alcotest.check_raises "response without invocation"
    (Invalid_argument "Trace.operations: response without invocation")
    (fun () -> ignore (Sim.Trace.operations t2))

let test_delays () =
  let t = sample_trace () in
  Alcotest.(check int) "one message" 1 (List.length (Sim.Trace.message_delays t));
  Alcotest.(check bool) "delay 8 admissible" true
    (Sim.Trace.delays_admissible model t);
  let bad : (msg, string, int) Sim.Trace.t = Sim.Trace.create () in
  Sim.Trace.record bad
    (Send { time = Rat.zero; src = 0; dst = 1; seq = 0; delay = rat 11 1; msg = M 0 });
  Alcotest.(check bool) "delay 11 > d inadmissible" false
    (Sim.Trace.delays_admissible model bad)

let test_last_time () =
  Alcotest.(check string) "empty trace last time 0" "0"
    (Rat.to_string (Sim.Trace.last_time (Sim.Trace.create ())));
  Alcotest.(check string) "sample last time 8" "8"
    (Rat.to_string (Sim.Trace.last_time (sample_trace ())))

let test_of_events_roundtrip () =
  let t = sample_trace () in
  let rebuilt = Sim.Trace.of_events (Sim.Trace.events t) in
  Alcotest.(check int) "same event count"
    (List.length (Sim.Trace.events t))
    (List.length (Sim.Trace.events rebuilt));
  Alcotest.(check int) "same op count" (Sim.Trace.operation_count t)
    (Sim.Trace.operation_count rebuilt)

let test_counters () =
  let t = sample_trace () in
  Alcotest.(check int) "event count" 8 (Sim.Trace.event_count t);
  Alcotest.(check int) "send count" 1 (Sim.Trace.send_count t);
  Alcotest.(check int) "deliver count" 1 (Sim.Trace.deliver_count t);
  Alcotest.(check int) "operation count" 2 (Sim.Trace.operation_count t);
  Alcotest.(check int) "pending count" 0 (Sim.Trace.pending_count t);
  Alcotest.(check int) "counts match retained list" 8
    (List.length (Sim.Trace.events t))

let test_retention_off () =
  let t : (msg, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:false ()
  in
  record_sample t;
  Alcotest.(check bool) "retains_events false" false
    (Sim.Trace.retains_events t);
  Alcotest.check_raises "events raises"
    (Invalid_argument "Trace.events: event retention is disabled") (fun () ->
      ignore (Sim.Trace.events t));
  (* Everything built by the streaming sinks still works. *)
  Alcotest.(check int) "event count" 8 (Sim.Trace.event_count t);
  Alcotest.(check int) "send count" 1 (Sim.Trace.send_count t);
  Alcotest.(check int) "operation count" 2 (Sim.Trace.operation_count t);
  Alcotest.(check bool) "delays admissible (envelope)" true
    (Sim.Trace.delays_admissible model t);
  let retained_ops = Sim.Trace.operations (sample_trace ()) in
  Alcotest.(check bool) "operations identical to retained run" true
    (Sim.Trace.operations t = retained_ops);
  Alcotest.(check string) "last_time still tracked" "8"
    (Rat.to_string (Sim.Trace.last_time t))

let test_custom_sink () =
  let t : (msg, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:false ()
  in
  let seen = ref [] in
  Sim.Trace.add_sink t
    { name = "collector"; on_event = (fun e -> seen := e :: !seen) };
  record_sample t;
  Alcotest.(check int) "sink saw every event" 8 (List.length !seen);
  (match List.rev !seen with
  | Sim.Trace.Invoke { proc = 0; inv = "write"; _ } :: _ -> ()
  | _ -> Alcotest.fail "sink events out of order");
  let ops = ref [] in
  let t2 : (msg, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:false ()
  in
  Sim.Trace.on_operation t2 (fun op -> ops := op :: !ops);
  record_sample t2;
  Alcotest.(check int) "operation observer fired twice" 2 (List.length !ops);
  (* Observers fire at response time: "read" (t=3) before "write" (t=5). *)
  match List.rev !ops with
  | [ first; second ] ->
      Alcotest.(check string) "first completion" "read" first.Sim.Trace.inv;
      Alcotest.(check string) "second completion" "write" second.Sim.Trace.inv
  | _ -> Alcotest.fail "expected exactly two completions"

(* A trace that hands its operations over keeps none: the receiver
   sees each one at its response, the count still holds, and listing
   the operations is refused rather than answered empty. *)
let test_hand_over () =
  let t : (msg, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:false ()
  in
  let handed = ref [] in
  Sim.Trace.hand_over t (fun op -> handed := op :: !handed);
  record_sample t;
  Alcotest.(check (list string))
    "handed over in response order" [ "read"; "write" ]
    (List.rev_map (fun (op : (string, int) Sim.Trace.operation) -> op.inv)
       !handed);
  Alcotest.(check int) "operation count" 2 (Sim.Trace.operation_count t);
  Alcotest.check_raises "operations refused"
    (Invalid_argument
       "Trace.operations: the completed operations were handed over")
    (fun () -> ignore (Sim.Trace.operations t))

let test_monitor () =
  let t : (msg, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:false ~monitor:model ()
  in
  record_sample t;
  Alcotest.(check bool) "no violation on admissible run" true
    (Sim.Trace.first_inadmissible t = None);
  Sim.Trace.record t
    (Send { time = rat 9 1; src = 2; dst = 0; seq = 0; delay = rat 11 1; msg = M 9 });
  (match Sim.Trace.first_inadmissible t with
  | Some v ->
      Alcotest.(check string) "violating delay" "11" (Rat.to_string v.delay);
      Alcotest.(check int) "violating src" 2 v.src
  | None -> Alcotest.fail "monitor missed the inadmissible delay");
  Alcotest.(check bool) "envelope check agrees" false
    (Sim.Trace.delays_admissible model t)

(* [operations] keeps the completed operations in invocation order as
   they respond.  Property: that is the order a stable sort of the
   response-ordered list gives, ties in invocation time staying in
   response order.  Each operation sets one timer of its [inv] units
   and responds when it fires, so operations overlap, and invocations
   and responses fall on shared instants. *)
let timer_engine ~n =
  let m = Sim.Model.make ~n ~d:(rat 10 1) ~u:(rat 4 1) ~eps:Rat.zero in
  Sim.Engine.create ~retain_events:false ~model:m
    ~offsets:(Array.make n Rat.zero)
    ~delay:(Sim.Net.constant (rat 8 1))
    ~handlers:
      {
        on_invoke =
          (fun ctx units -> ignore (ctx.set_timer_after (Rat.of_int units) ()));
        on_receive = (fun _ ~src:_ () -> ());
        on_timer = (fun ctx () -> ctx.respond ());
      }
    ()

let in_response_order trace =
  let acc = ref [] in
  Sim.Trace.on_operation trace (fun op -> acc := op :: !acc);
  acc

let stable_by_invocation (ops : (int, unit) Sim.Trace.operation list) =
  List.stable_sort
    (fun (a : (int, unit) Sim.Trace.operation) b ->
      Rat.compare a.inv_time b.inv_time)
    ops

let prop_operations_in_invocation_order =
  QCheck.Test.make ~name:"operations are stable-sorted by invocation"
    ~count:300
    QCheck.(
      triple (int_range 0 3) bool
        (list_of_size (Gen.int_range 0 30) (pair (int_range 0 4) (int_range 0 3))))
    (fun (extra, closed, draws) ->
      let n = 2 + extra in
      let e = timer_engine ~n in
      let trace = Sim.Engine.trace e in
      let responded = in_response_order trace in
      if closed then begin
        (* Closed loop: each response invokes the next draw at once or
           after a whole-unit think time. *)
        let draws = ref draws in
        Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
            match !draws with
            | [] -> ()
            | (think, units) :: rest ->
                draws := rest;
                Sim.Engine.schedule_invoke e
                  ~at:(Rat.add time (Rat.of_int (think mod 2)))
                  ~proc units);
        for proc = 0 to n - 1 do
          Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc 1
        done
      end
      else
        (* Explicit schedule: process [p]'s [k]th operation is invoked
           at [4k] or [4k + 1] and takes at most 2 units, so it has
           responded before the process's next invocation. *)
        List.iteri
          (fun i (slot, units) ->
            Sim.Engine.schedule_invoke e
              ~at:(Rat.of_int ((4 * (i / n)) + (slot mod 2)))
              ~proc:(i mod n) (units mod 3))
          draws;
      Sim.Engine.run e;
      Sim.Trace.operations trace = stable_by_invocation (List.rev !responded))

(* [insert_in_order] allocates eight slots for the first operation,
   nothing until they fill, then one doubled copy; ties keep their
   insertion order. *)
let test_insert_allocates_on_growth () =
  let op i : (int, unit) Sim.Trace.operation =
    {
      proc = i;
      inv = i;
      resp = ();
      inv_time = Rat.of_int ((9 - i) / 3);
      resp_time = Rat.of_int 9;
    }
  in
  let ops = Array.init 9 op in
  let before = Gc.minor_words () in
  let a = Sim.Trace.insert_in_order [||] 0 ops.(0) in
  Alcotest.(check (float 0.)) "eight slots" 9. (Gc.minor_words () -. before);
  let before = Gc.minor_words () in
  let a = ref a in
  for i = 1 to 7 do
    a := Sim.Trace.insert_in_order !a i ops.(i)
  done;
  Alcotest.(check (float 0.)) "no growth" 0. (Gc.minor_words () -. before);
  let before = Gc.minor_words () in
  let a = Sim.Trace.insert_in_order !a 8 ops.(8) in
  Alcotest.(check (float 0.)) "doubled" 17. (Gc.minor_words () -. before);
  Alcotest.(check (list int)) "invocation order, ties as inserted"
    [ 7; 8; 4; 5; 6; 1; 2; 3; 0 ]
    (List.init 9 (fun k -> a.(k).inv))

let () =
  Alcotest.run "trace"
    [
      ( "trace",
        [
          Alcotest.test_case "operation extraction" `Quick test_operations;
          Alcotest.test_case "pending invocations" `Quick test_pending;
          Alcotest.test_case "ill-formed histories rejected" `Quick
            test_overlap_rejected;
          Alcotest.test_case "message delays" `Quick test_delays;
          Alcotest.test_case "last_time" `Quick test_last_time;
          Alcotest.test_case "of_events roundtrip" `Quick
            test_of_events_roundtrip;
          Alcotest.test_case "streaming counters" `Quick test_counters;
          Alcotest.test_case "retention off" `Quick test_retention_off;
          Alcotest.test_case "custom sinks and observers" `Quick
            test_custom_sink;
          Alcotest.test_case "admissibility monitor" `Quick test_monitor;
          Alcotest.test_case "operations handed over" `Quick test_hand_over;
          Alcotest.test_case "insertion allocates only on growth" `Quick
            test_insert_allocates_on_growth;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_operations_in_invocation_order ] );
    ]
