(* Property tests for the streaming trace pipeline: the incremental
   sinks must agree with a from-scratch batch pass over the retained
   event list on arbitrary well-formed traces, and a retention-off
   closed-loop run must produce a report identical to a retained one
   for every bundled data type. *)

let rat = Rat.make
let model = Sim.Model.make ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 2 1)

(* ---------------- random well-formed traces ---------------- *)

type ev = (int, string, int) Sim.Trace.event

(* Generate a chronological event list over [model.n] processes:
   invocations and responses respect the at-most-one-pending rule,
   sends carry delays that are usually admissible but sometimes
   (deliberately) out of bounds, and timers/delivers are sprinkled in.
   Returns events in recording order. *)
let gen_events (rng : Random.State.t) : ev list =
  let n = model.n in
  let steps = 2 + Random.State.int rng 60 in
  let pending = Array.make n false in
  let time = ref Rat.zero in
  let events = ref [] in
  let push (e : ev) = events := e :: !events in
  let advance () =
    if Random.State.bool rng then
      time := Rat.add !time (rat (Random.State.int rng 5) 2)
  in
  for step = 0 to steps - 1 do
    advance ();
    let proc = Random.State.int rng n in
    match Random.State.int rng 6 with
    | 0 | 1 ->
        if not pending.(proc) then begin
          pending.(proc) <- true;
          push
            (Invoke { time = !time; proc; inv = Printf.sprintf "op%d" (step mod 3) })
        end
    | 2 ->
        if pending.(proc) then begin
          pending.(proc) <- false;
          (* Recover the matching invocation from what we generated. *)
          let inv =
            List.find_map
              (function
                | Sim.Trace.Invoke { proc = p; inv; _ } when p = proc ->
                    Some inv
                | _ -> None)
              !events
            |> Option.get
          in
          push (Respond { time = !time; proc; inv; resp = step })
        end
    | 3 ->
        let dst = Random.State.int rng n in
        (* Mostly admissible delays in [d-u, d]; occasionally a late
           one, to exercise the monitor. *)
        let delay =
          if Random.State.int rng 10 = 0 then Rat.add model.d Rat.one
          else Rat.add (Rat.sub model.d model.u) (rat (Random.State.int rng 9) 2)
        in
        push (Send { time = !time; src = proc; dst; seq = step; delay; msg = step })
    | 4 ->
        push (Deliver { time = !time; src = proc; dst = (proc + 1) mod n; msg = step })
    | _ ->
        push
          (Timer_set
             { time = !time; proc; id = step; expiry = Rat.add !time Rat.one })
  done;
  List.rev !events

(* ---------------- batch reference over the event list ---------------- *)

type reference = {
  ref_events : int;
  ref_sends : int;
  ref_delivers : int;
  ref_ops : (string, int) Sim.Trace.operation list;
  ref_pending : int;
  ref_admissible : bool;
  ref_first_violation : Rat.t option;
  ref_last : Rat.t;
}

(* An independent, obviously-correct fold over the materialized list —
   the pre-refactor semantics the sinks must reproduce. *)
let batch_reference (es : ev list) : reference =
  let sends = List.length (List.filter (function Sim.Trace.Send _ -> true | _ -> false) es) in
  let delivers =
    List.length (List.filter (function Sim.Trace.Deliver _ -> true | _ -> false) es)
  in
  let pending = Hashtbl.create 8 in
  let ops = ref [] in
  List.iter
    (function
      | Sim.Trace.Invoke { time; proc; inv } -> Hashtbl.replace pending proc (time, inv)
      | Respond { time; proc; resp; _ } ->
          let inv_time, inv = Hashtbl.find pending proc in
          Hashtbl.remove pending proc;
          ops :=
            { Sim.Trace.proc; inv; resp; inv_time; resp_time = time } :: !ops
      | _ -> ())
    es;
  let delays =
    List.filter_map
      (function Sim.Trace.Send { delay; _ } -> Some delay | _ -> None)
      es
  in
  let admissible d =
    Rat.in_range ~lo:(Rat.sub model.d model.u) ~hi:model.d d
  in
  {
    ref_events = List.length es;
    ref_sends = sends;
    ref_delivers = delivers;
    ref_ops =
      List.stable_sort
        (fun (a : (string, int) Sim.Trace.operation) b ->
          Rat.compare a.inv_time b.inv_time)
        (List.rev !ops);
    ref_pending = Hashtbl.length pending;
    ref_admissible = List.for_all admissible delays;
    ref_first_violation =
      List.find_opt (fun d -> not (admissible d)) delays;
    ref_last =
      List.fold_left
        (fun acc (e : ev) ->
          let t =
            match e with
            | Invoke { time; _ }
            | Respond { time; _ }
            | Send { time; _ }
            | Deliver { time; _ }
            | Timer_set { time; _ }
            | Timer_fire { time; _ }
            | Timer_cancel { time; _ }
            | Fault { time; _ } ->
                time
          in
          Rat.max acc t)
        Rat.zero es;
  }

let replay ~retain (es : ev list) =
  let t : (int, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:retain ~monitor:model ()
  in
  List.iter (Sim.Trace.record t) es;
  t

let agrees (es : ev list) =
  let r = batch_reference es in
  List.for_all
    (fun t ->
      Sim.Trace.event_count t = r.ref_events
      && Sim.Trace.send_count t = r.ref_sends
      && Sim.Trace.deliver_count t = r.ref_delivers
      && Sim.Trace.operations t = r.ref_ops
      && Sim.Trace.operation_count t = List.length r.ref_ops
      && Sim.Trace.pending_count t = r.ref_pending
      && Sim.Trace.delays_admissible model t = r.ref_admissible
      && Option.map (fun (v : Sim.Trace.violation) -> v.delay)
           (Sim.Trace.first_inadmissible t)
         = r.ref_first_violation
      && Rat.equal (Sim.Trace.last_time t) r.ref_last)
    [ replay ~retain:true es; replay ~retain:false es ]

(* Grouped streaming metrics (fed from on_operation) vs the batch
   by_op over the sorted operation list.  Key order differs (first
   completion vs first invocation), so compare sorted by key. *)
let grouped_agrees (es : ev list) =
  let t : (int, string, int) Sim.Trace.t =
    Sim.Trace.create ~retain_events:false ()
  in
  let grouped : string Core.Metrics.Grouped.t = Core.Metrics.Grouped.create () in
  Sim.Trace.on_operation t (fun op ->
      Core.Metrics.Grouped.add grouped op.inv (Core.Metrics.latency op));
  List.iter (Sim.Trace.record t) es;
  let by_key l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  by_key (Core.Metrics.Grouped.summaries grouped)
  = by_key (Core.Metrics.by_op ~op_of:Fun.id (Sim.Trace.operations t))

let arb_events =
  QCheck.make
    ~print:(fun es -> Printf.sprintf "<%d events>" (List.length es))
    (QCheck.Gen.map
       (fun seed -> gen_events (Random.State.make [| seed |]))
       QCheck.Gen.int)

let properties =
  [
    QCheck.Test.make ~name:"sinks agree with batch reference" ~count:300
      arb_events agrees;
    QCheck.Test.make ~name:"grouped metrics agree with batch by_op" ~count:300
      arb_events grouped_agrees;
  ]

(* ---------------- retained vs streamed, all bundled types ---------------- *)

(* [Core.Runtime] never retains events, so retention is compared where
   it still exists, at the cluster: the same run twice, with the event
   list kept and without, each summarized from its trace by
   [Runtime.report_of_trace].  The reports — operations, counts,
   latency, admissibility, fault counters, linearization — must be
   identical, and only the retained trace may hold events. *)
let check_retention ~name (retained_trace, retained) (streamed_trace, streamed)
    =
  Alcotest.(check bool) (name ^ ": retained trace holds every event") true
    (List.length (Sim.Trace.events retained_trace)
     = Sim.Trace.event_count retained_trace);
  Alcotest.(check bool) (name ^ ": streamed trace holds none") true
    (not (Sim.Trace.retains_events streamed_trace));
  Alcotest.(check bool) (name ^ ": reports identical") true
    (retained = streamed)

let closed_loop_identical (type s i r) seed
    (module T : Spec.Data_type.S
      with type state = s
       and type invocation = i
       and type response = r) () =
  let module R = Core.Runtime.Make (T) in
  let module W = Core.Wtlw.Make (T) in
  let run_model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let offsets = [| Rat.zero; rat 1 1; rat (-1) 1; rat 1 2 |] in
  let go retain_events =
    let cluster =
      W.create ~retain_events ~model:run_model ~x:(rat 3 1) ~offsets
        ~delay:(Sim.Net.random_model ~seed run_model)
        ()
    in
    let trace =
      Closed_loop.run cluster.engine ~n:4 ~per_proc:4 ~think:(rat 1 2) ~seed
        T.gen_invocation
    in
    (trace, R.report_of_trace ~model:run_model ~algorithm:"wtlw" ~check:true trace)
  in
  let retained = go true and streamed = go false in
  check_retention ~name:T.name retained streamed;
  Alcotest.(check bool) (T.name ^ ": run ok") true (R.ok (snd streamed))

(* The same comparison on a faulted run: drops and duplicates under the
   reliable channel, and a crash.  This takes the engine's injector
   send path (copies, dropped sends, fault events) where the runs
   above take the fault-free one. *)
let faulted_identical () =
  let module R = Core.Runtime.Make (Spec.Register) in
  let module W = Core.Wtlw.Make (Spec.Register) in
  let run_model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let faults =
    Sim.Fault.plan ~seed:7
      [
        Sim.Fault.drops 0.1;
        Sim.Fault.duplicates 0.1;
        Sim.Fault.crash ~proc:3 ~at:(rat 60 1);
      ]
  in
  let config = Core.Reliable.default_config run_model in
  let effective =
    Core.Reliable.inflated_model ~extra_skew:(Sim.Fault.extra_skew faults)
      ~max_spike:(Sim.Fault.max_spike faults) config run_model
  in
  let go retain_events =
    let handlers, _ =
      Core.Reliable.wrap ~config ~n:4
        (W.protocol
           ~timing:(Core.Wtlw.default_timing effective ~x:(rat 9 2))
           (W.fresh_states ~n:4))
    in
    let engine =
      Sim.Engine.create ~retain_events ~faults ~model:effective
        ~offsets:(Array.make 4 Rat.zero)
        ~delay:(Sim.Net.random_model ~seed:3 run_model)
        ~handlers ()
    in
    let trace =
      Closed_loop.run engine ~n:4 ~per_proc:6 ~think:(rat 1 2) ~seed:3
        Spec.Register.gen_invocation
    in
    ( trace,
      R.report_of_trace ~model:effective ~algorithm:"wtlw+reliable"
        ~check:true trace )
  in
  let retained = go true and streamed = go false in
  let f = (snd streamed).R.faults in
  Alcotest.(check bool) "drops, duplicates and the crash were injected" true
    (f.dropped > 0 && f.duplicated > 0 && f.crashed = 1);
  check_retention ~name:"faulted register" retained streamed

let all_types_cases =
  [
    Alcotest.test_case "register" `Quick
      (closed_loop_identical 5 (module Spec.Register));
    Alcotest.test_case "rmw-register" `Quick
      (closed_loop_identical 6 (module Spec.Rmw_register));
    Alcotest.test_case "queue" `Quick
      (closed_loop_identical 7 (module Spec.Fifo_queue));
    Alcotest.test_case "stack" `Quick
      (closed_loop_identical 8 (module Spec.Stack_type));
    Alcotest.test_case "tree" `Quick
      (closed_loop_identical 9 (module Spec.Tree_type));
    Alcotest.test_case "set" `Quick
      (closed_loop_identical 10 (module Spec.Set_type));
    Alcotest.test_case "counter" `Quick
      (closed_loop_identical 11 (module Spec.Counter_type));
    Alcotest.test_case "priority-queue" `Quick
      (closed_loop_identical 12 (module Spec.Priority_queue));
    Alcotest.test_case "log" `Quick
      (closed_loop_identical 13 (module Spec.Log_type));
  ]

let () =
  Alcotest.run "streaming"
    [
      ("properties", List.map QCheck_alcotest.to_alcotest properties);
      ( "retained vs streamed",
        all_types_cases
        @ [
            Alcotest.test_case "faulted register" `Quick faulted_identical;
          ] );
    ]
