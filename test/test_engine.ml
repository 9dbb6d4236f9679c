(* Tests for the discrete-event engine: timers, message delays, clock
   offsets, response pairing, determinism, and failure modes. *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 2 1)

(* A toy protocol: "ping" sends to the next process and responds on the
   echo; "wait" sets a timer and responds when it fires, recording the
   local clock value it observed. *)
type msg = Ping | Pong
type tag = Alarm

let make_engine ?(offsets = Array.make 3 Rat.zero) ?(delay = Sim.Net.constant (rat 8 1))
    ?(alarm = rat 5 1) ~on_local_time () =
  let on_invoke (ctx : (msg, tag, string) Sim.Engine.ctx) inv =
    match inv with
    | "ping" -> ctx.send ~dst:((ctx.self + 1) mod ctx.n) Ping
    | "wait" -> ignore (ctx.set_timer_after alarm Alarm)
    | "clock" ->
        on_local_time ctx.self ctx.local_time;
        ctx.respond "clocked"
    | "broadcast" -> ctx.broadcast Ping
    | _ -> Alcotest.failf "unknown invocation %s" inv
  in
  let on_receive (ctx : (msg, tag, string) Sim.Engine.ctx) ~src msg =
    match msg with
    | Ping -> ctx.send ~dst:src Pong
    | Pong -> ctx.respond "echoed"
  in
  let on_timer (ctx : (msg, tag, string) Sim.Engine.ctx) Alarm =
    ctx.respond "alarm"
  in
  Sim.Engine.create ~model ~offsets ~delay
    ~handlers:{ on_invoke; on_receive; on_timer }
    ()

let no_clock _ _ = ()

let test_ping_roundtrip () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.run e;
  let ops = Sim.Trace.operations (Sim.Engine.trace e) in
  match ops with
  | [ op ] ->
      Alcotest.(check string) "resp" "echoed" op.resp;
      Alcotest.(check string) "latency = 2 * 8" "16"
        (Rat.to_string (Rat.sub op.resp_time op.inv_time))
  | _ -> Alcotest.fail "expected one operation"

let test_timer_latency () =
  let e = make_engine ~alarm:(rat 7 2) ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:(rat 1 1) ~proc:2 "wait";
  Sim.Engine.run e;
  let ops = Sim.Trace.operations (Sim.Engine.trace e) in
  match ops with
  | [ op ] ->
      Alcotest.(check string) "resp" "alarm" op.resp;
      Alcotest.(check string) "fires after exactly 7/2" "7/2"
        (Rat.to_string (Rat.sub op.resp_time op.inv_time))
  | _ -> Alcotest.fail "expected one operation"

let test_local_clock_offsets () =
  let seen = ref [] in
  let offsets = [| Rat.zero; rat 1 1; rat (-1) 1 |] in
  let e =
    make_engine ~offsets ~on_local_time:(fun proc t -> seen := (proc, t) :: !seen)
      ()
  in
  List.iter
    (fun proc -> Sim.Engine.schedule_invoke e ~at:(rat 5 1) ~proc "clock")
    [ 0; 1; 2 ];
  Sim.Engine.run e;
  let lookup proc = Rat.to_string (List.assoc proc !seen) in
  Alcotest.(check string) "p0 local = real" "5" (lookup 0);
  Alcotest.(check string) "p1 local = real + 1" "6" (lookup 1);
  Alcotest.(check string) "p2 local = real - 1" "4" (lookup 2)

let test_skew_rejected () =
  match
    make_engine ~offsets:[| Rat.zero; rat 5 1; Rat.zero |]
      ~on_local_time:no_clock ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "offsets beyond eps must be rejected"

let test_broadcast_counts () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 "broadcast";
  (* The protocol never responds to "broadcast"; drain events anyway. *)
  (try Sim.Engine.run e with _ -> ());
  let sends =
    List.filter
      (function Sim.Trace.Send _ -> true | _ -> false)
      (Sim.Trace.events (Sim.Engine.trace e))
  in
  (* broadcast = n-1 pings, each answered by a pong to p1. *)
  Alcotest.(check int) "2 pings + 2 pongs" 4 (List.length sends)

let test_matrix_delays_respected () =
  let m = Sim.Net.uniform_matrix ~n:3 (rat 8 1) in
  m.(0).(1) <- rat 6 1;
  m.(1).(0) <- rat 10 1;
  let e = make_engine ~delay:(Sim.Net.matrix m) ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.run e;
  let ops = Sim.Trace.operations (Sim.Engine.trace e) in
  Alcotest.(check string) "latency 6 + 10" "16"
    (Rat.to_string
       (let op = List.hd ops in
        Rat.sub op.resp_time op.inv_time));
  let delays =
    List.map (fun (_, _, d) -> Rat.to_string d)
      (Sim.Trace.message_delays (Sim.Engine.trace e))
  in
  Alcotest.(check (list string)) "recorded delays" [ "6"; "10" ] delays

let test_determinism () =
  let run () =
    let e = make_engine ~on_local_time:no_clock () in
    Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
    Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 "ping";
    Sim.Engine.schedule_invoke e ~at:(rat 1 2) ~proc:2 "wait";
    Sim.Engine.run e;
    List.map
      (fun (op : (string, string) Sim.Trace.operation) ->
        (op.proc, op.inv, op.resp, Rat.to_string op.resp_time))
      (Sim.Trace.operations (Sim.Engine.trace e))
  in
  Alcotest.(check bool) "two identical runs" true (run () = run ())

let test_double_invoke_rejected () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.schedule_invoke e ~at:(rat 1 1) ~proc:0 "ping";
  (* The second invocation lands while the first is pending. *)
  match Sim.Engine.run e with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "overlapping invocation must be rejected"

let test_invoke_in_past_rejected () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:(rat 2 1) ~proc:0 "wait";
  Sim.Engine.run e;
  match Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "wait" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "scheduling in the past must be rejected"

let test_response_callback_closed_loop () =
  let e = make_engine ~on_local_time:no_clock () in
  let completions = ref 0 in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      incr completions;
      if !completions < 3 then
        Sim.Engine.schedule_invoke e ~at:(Rat.add time Rat.one) ~proc "ping");
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.run e;
  Alcotest.(check int) "three chained operations" 3 !completions;
  Alcotest.(check int) "trace agrees" 3
    (Sim.Trace.operation_count (Sim.Engine.trace e))

let test_step_limit () =
  (* A self-perpetuating timer chain must hit the step limit. *)
  let on_invoke (ctx : (unit, unit, unit) Sim.Engine.ctx) () =
    ignore (ctx.set_timer_after Rat.one ())
  in
  let on_timer (ctx : (unit, unit, unit) Sim.Engine.ctx) () =
    ignore (ctx.set_timer_after Rat.one ())
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        { on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 ();
  match Sim.Engine.run ~max_events:500 e with
  | exception Sim.Engine.Step_limit_exceeded 500 -> ()
  | _ -> Alcotest.fail "expected step limit"

let test_send_validation () =
  let on_invoke (ctx : (unit, unit, unit) Sim.Engine.ctx) target =
    ctx.send ~dst:target ()
  in
  let make () =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke;
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  (* Sending to self and out-of-range destinations is rejected. *)
  List.iter
    (fun target ->
      let e = make () in
      Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 target;
      match Sim.Engine.run e with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "send to %d must be rejected" target)
    [ 1; -1; 7 ];
  (* Negative timer durations are rejected too. *)
  let on_invoke (ctx : (unit, unit, unit) Sim.Engine.ctx) () =
    ignore (ctx.set_timer_after (rat (-1) 1) ())
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke;
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 ();
  (match Sim.Engine.run e with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative timer duration must be rejected")

let test_cancelled_timer_does_not_fire () =
  let fired = ref false in
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    let id = ctx.set_timer_after Rat.one "boom" in
    ctx.cancel_timer id;
    ignore (ctx.set_timer_after (rat 2 1) "ok")
  in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) tag =
    if tag = "boom" then fired := true else ctx.respond tag
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        { on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled timer silent" false !fired;
  Alcotest.(check int) "the live timer responded" 1
    (Sim.Trace.operation_count (Sim.Engine.trace e))

(* Regression: the cancelled-timer table must not leak.  Each cancelled
   id's queue entry is its only consumer; before the fix the dispatcher
   removed the id only on the fire path, so a timer-churning run grew
   the table without bound. *)
let test_cancelled_table_drains () =
  let rounds = 500 in
  let count = ref 0 in
  let churn (ctx : (unit, string, string) Sim.Engine.ctx) =
    if !count < rounds then begin
      incr count;
      let doomed = ctx.set_timer_after Rat.one "doomed" in
      ctx.cancel_timer doomed;
      ignore (ctx.set_timer_after Rat.one "tick")
    end
  in
  let on_invoke ctx _ = churn ctx in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) tag =
    if tag = "doomed" then Alcotest.fail "cancelled timer fired";
    churn ctx
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:{ on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run ~max_events:(8 * rounds) e;
  Alcotest.(check int) "all rounds ran" rounds !count;
  Alcotest.(check int) "cancelled table drained" 0
    (Sim.Engine.cancelled_timers e)

(* The same invariant when the cancelling process crashes before the
   cancelled entry pops: the skip path must still drop the id. *)
let test_cancelled_table_drains_after_crash () =
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    let doomed = ctx.set_timer_after (rat 10 1) "doomed" in
    ctx.cancel_timer doomed
  in
  let faults =
    {
      Sim.Fault.none with
      specs = [ Sim.Fault.crash ~proc:0 ~at:(rat 1 1) ];
    }
  in
  let e =
    Sim.Engine.create ~faults ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke;
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ _ -> ());
        }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run e;
  Alcotest.(check int) "cancelled table drained despite crash" 0
    (Sim.Engine.cancelled_timers e)

(* Algorithm 1's Execute handler cancels its own timer after it has
   fired (the drain cancels every queued mutator's execute timer, the
   one that triggered it included).  Such a cancel must leave nothing
   behind: the cancelled-timer count ends a long keyed-queue run at 0. *)
let test_fired_cancels_leave_nothing () =
  let module KQ = Spec.Keyed.Make (Spec.Fifo_queue) in
  let module W = Core.Wtlw.Make (KQ) in
  let ops = 20_000 in
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let cluster =
    W.create ~retain_events:false ~model ~x:(rat 3 1)
      ~offsets:[| Rat.zero; rat 1 1; rat (-1) 1; rat 3 2 |]
      ~delay:(Sim.Net.random_model ~seed:5 model)
      ()
  in
  let e = cluster.engine in
  let rng = Random.State.make [| 5 |] in
  let issued = ref 0 in
  let issue ~at ~proc =
    incr issued;
    Sim.Engine.schedule_invoke e ~at ~proc (KQ.gen_invocation rng)
  in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      if !issued < ops then issue ~at:(Rat.add time (rat 1 2)) ~proc);
  for proc = 0 to model.n - 1 do
    issue ~at:(rat proc 8) ~proc
  done;
  Sim.Engine.run ~max_events:10_000_000 e;
  Alcotest.(check int) "every operation completed" ops
    (Sim.Trace.operation_count (Sim.Engine.trace e));
  Alcotest.(check int) "no cancelled timer left" 0
    (Sim.Engine.cancelled_timers e)

(* The reliable channel cancels a retransmission timer on every first
   ack; with drops and duplicates some acks come after the timer has
   fired or twice.  Nothing may be left once the run drains. *)
let test_reliable_cancels_leave_nothing () =
  let module W = Core.Wtlw.Make (Spec.Register) in
  let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1) in
  let handlers, stats =
    Core.Reliable.wrap
      ~config:(Core.Reliable.default_config model)
      ~n:model.n
      (W.protocol
         ~timing:(Core.Wtlw.default_timing model ~x:(rat 2 1))
         (W.fresh_states ~n:model.n))
  in
  let faults =
    Sim.Fault.plan ~seed:3 [ Sim.Fault.drops 0.2; Sim.Fault.duplicates 0.2 ]
  in
  let e =
    Sim.Engine.create ~retain_events:false ~faults ~model
      ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.random_model ~seed:3 model)
      ~handlers ()
  in
  let rng = Random.State.make [| 3 |] in
  let left = Array.make model.n 40 in
  let issue ~at ~proc =
    left.(proc) <- left.(proc) - 1;
    Sim.Engine.schedule_invoke e ~at ~proc (Spec.Register.gen_invocation rng)
  in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      if left.(proc) > 0 then issue ~at:(Rat.add time Rat.one) ~proc);
  for proc = 0 to model.n - 1 do
    issue ~at:Rat.zero ~proc
  done;
  Sim.Engine.run e;
  Alcotest.(check bool) "acks were cancelled" true (stats.acked > 0);
  Alcotest.(check bool) "payloads were retransmitted" true
    (stats.retransmits > 0);
  Alcotest.(check int) "no cancelled timer left" 0
    (Sim.Engine.cancelled_timers e)

(* Cancelling a timer that has fired, one already cancelled, or an id
   that was never issued changes nothing — but each call still records
   exactly one Timer_cancel event. *)
let test_cancel_is_idempotent () =
  let engine = ref None in
  let get () = Option.get !engine in
  let events () = Sim.Trace.event_count (Sim.Engine.trace (get ())) in
  let cancel_counted (ctx : (unit, string, string) Sim.Engine.ctx) id =
    let before = events () in
    ctx.cancel_timer id;
    Alcotest.(check int)
      (Printf.sprintf "cancel %d records one event" id)
      (before + 1) (events ())
  in
  let late = ref (-1) in
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) _ =
    let doomed = ctx.set_timer_after (rat 5 1) "doomed" in
    cancel_counted ctx doomed;
    Alcotest.(check int) "one pending cancel" 1
      (Sim.Engine.cancelled_timers (get ()));
    cancel_counted ctx doomed;
    Alcotest.(check int) "cancelling twice counts once" 1
      (Sim.Engine.cancelled_timers (get ()));
    List.iter (cancel_counted ctx) [ 1000; -1 ];
    Alcotest.(check int) "unknown ids change nothing" 1
      (Sim.Engine.cancelled_timers (get ()));
    late := ctx.set_timer_after (rat 1 1) "late"
  in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) tag =
    if tag = "doomed" then Alcotest.fail "cancelled timer fired";
    (* The timer being handled has fired: cancelling it is a no-op. *)
    cancel_counted ctx !late;
    Alcotest.(check int) "fired timer not counted" 1
      (Sim.Engine.cancelled_timers (get ()));
    ctx.respond tag
  in
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:{ on_invoke; on_receive = (fun _ ~src:_ () -> ()); on_timer }
      ()
  in
  engine := Some e;
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "go";
  Sim.Engine.run e;
  Alcotest.(check int) "the late timer responded" 1
    (Sim.Trace.operation_count (Sim.Engine.trace e));
  Alcotest.(check int) "drained" 0 (Sim.Engine.cancelled_timers e);
  let cancels =
    List.length
      (List.filter
         (function Sim.Trace.Timer_cancel _ -> true | _ -> false)
         (Sim.Trace.events (Sim.Engine.trace e)))
  in
  Alcotest.(check int) "five Timer_cancel events" 5 cancels

(* The engine builds one ctx and re-stamps it per event; its closures
   act for the process being dispatched.  Each process is invoked with
   its own id and each timer is tagged with its setter's, so every
   handler can check [ctx.self]; each message names the process that
   sent it and the one it was sent to ([-1] for a broadcast), so a send
   that left from another process is caught on arrival, and so is a
   response that completes another process's operation. *)
type stamped = { from : int; dest : int }

let run_self_checked ~n ~wrap =
  let model =
    Sim.Model.make ~n ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 2 1)
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let expect what ~proc (ctx : (stamped, int, int) Sim.Engine.ctx) =
    if ctx.self <> proc then fail "%s for %d: ctx.self = %d" what proc ctx.self
  in
  let handlers : (stamped, int, int, int) Sim.Engine.handlers =
    {
      on_invoke =
        (fun ctx proc ->
          expect "invoke" ~proc ctx;
          let next = (ctx.self + 1) mod ctx.n in
          ctx.send ~dst:next { from = ctx.self; dest = next };
          ctx.broadcast { from = ctx.self; dest = -1 };
          ignore (ctx.set_timer_after (rat (13 + ctx.self) 2) ctx.self));
      on_receive =
        (fun ctx ~src m ->
          if m.from <> src then fail "sent by %d, left from %d" m.from src;
          if m.dest >= 0 then expect "receive" ~proc:m.dest ctx
          else if ctx.self = src then fail "broadcast from %d came back" src);
      on_timer =
        (fun ctx owner ->
          expect "timer" ~proc:owner ctx;
          ctx.respond ctx.self);
    }
  in
  let e =
    Sim.Engine.create ~retain_events:false ~model ~offsets:(Array.make n Rat.zero)
      ~delay:(Sim.Net.random_model ~seed:n model)
      ~handlers:(wrap model handlers) ()
  in
  let rounds = Array.make n 3 in
  Sim.Engine.set_response_callback e (fun ~proc ~inv ~resp ~time ->
      if inv <> proc || resp <> proc then
        fail "operation of %d at %d answered %d" inv proc resp;
      rounds.(proc) <- rounds.(proc) - 1;
      if rounds.(proc) > 0 then
        Sim.Engine.schedule_invoke e ~at:(Rat.add time (rat 1 3)) ~proc proc);
  for proc = 0 to n - 1 do
    Sim.Engine.schedule_invoke e ~at:(rat proc 3) ~proc proc
  done;
  Sim.Engine.run e;
  Alcotest.(check (list string)) "every ctx acts for its process" []
    (List.rev !failures);
  Alcotest.(check int) "every operation completed" (3 * n)
    (Sim.Trace.operation_count (Sim.Engine.trace e))

let test_ctx_self () =
  for n = 2 to 5 do
    run_self_checked ~n ~wrap:(fun _ h -> h);
    run_self_checked ~n ~wrap:(fun model h ->
        fst
          (Core.Reliable.wrap
             ~config:(Core.Reliable.default_config model)
             ~n h))
  done

(* An event's kind, process and second int share one queue tag: each
   survives the packing at the edges of its field, whatever the other
   two hold, and the tag is never negative. *)
let test_tag_bounds () =
  let max_proc = (1 lsl 20) - 1 and max_timer = (1 lsl 40) - 1 in
  List.iter
    (fun kind ->
      List.iter
        (fun fst ->
          List.iter
            (fun snd ->
              let tag = Sim.Engine.Tag.pack ~kind ~fst ~snd in
              Alcotest.(check (list int))
                (Printf.sprintf "kind %d, fst %d, snd %d" kind fst snd)
                [ kind; fst; snd ]
                Sim.Engine.Tag.[ kind tag; fst tag; snd tag ];
              Alcotest.(check bool) "non-negative" true (tag >= 0))
            [ 0; 1; max_proc; max_proc + 1; max_timer ])
        [ 0; 1; max_proc ])
    [ 0; 1; 2; 3 ]

(* A process id takes 20 bits of the tag: n = 2^20 is refused by name
   before anything sized by n — the n x n send counters above all — is
   allocated. *)
let test_too_many_processes () =
  let n = 1 lsl 20 in
  let model = Sim.Model.make ~n ~d:(rat 10 1) ~u:(rat 4 1) ~eps:Rat.one in
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).major_words in
  let before = words () in
  Alcotest.check_raises "refused"
    (Invalid_argument
       "Engine.create: n = 1048576 processes do not fit the event tag (at \
        most 2^20 - 1)")
    (fun () ->
      ignore
        (Sim.Engine.create ~model ~offsets:[||]
           ~delay:(Sim.Net.constant (rat 8 1))
           ~handlers:
             {
               on_invoke = (fun _ () -> ());
               on_receive = (fun _ ~src:_ () -> ());
               on_timer = (fun _ () -> ());
             }
           ()));
  let spent = words () -. before in
  if spent >= 1000. then Alcotest.failf "refusal allocated %.0f words" spent

(* The engine keeps no table of pending invocations beside the trace's
   pairing sink, so the operations of a run cost their completed record
   (6 words) and nothing for the invocation itself: no [Some] box, and
   no event when nothing keeps events.  A first batch warms the event
   queue; the difference of two batches leaves out [run]'s fixed
   cost. *)
let test_invocation_allocation () =
  let e =
    Sim.Engine.create ~retain_events:false ~model
      ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke = (fun ctx () -> ctx.respond ());
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  Sim.Trace.hand_over (Sim.Engine.trace e) ignore;
  let next = ref 0 in
  let run_batch size =
    let before = Gc.minor_words () in
    for i = !next to !next + size - 1 do
      Sim.Engine.schedule_invoke e ~at:(Rat.of_int i) ~proc:(i mod 3) ()
    done;
    next := !next + size;
    Sim.Engine.run e;
    Gc.minor_words () -. before
  in
  ignore (run_batch 128);
  let small = run_batch 64 in
  let large = run_batch 128 in
  Alcotest.(check (float 0.)) "words per operation" 6. ((large -. small) /. 64.);
  Alcotest.(check int) "every operation completed" 320
    (Sim.Trace.operation_count (Sim.Engine.trace e))

(* The two refusals of an ill-paired history keep their texts: an
   invocation at a process with one pending, and a response at a
   process with none. *)
let test_pairing_refusals () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.schedule_invoke e ~at:(rat 1 1) ~proc:0 "ping";
  Alcotest.check_raises "invocation while pending"
    (Invalid_argument "Engine: invocation while an operation is pending")
    (fun () -> Sim.Engine.run e);
  let e =
    Sim.Engine.create ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke =
            (fun ctx () ->
              ctx.respond "first";
              ctx.respond "second");
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 ();
  Alcotest.check_raises "response with none pending"
    (Invalid_argument "Engine: respond with no pending operation")
    (fun () -> Sim.Engine.run e);
  Alcotest.(check int) "the first response was recorded" 1
    (Sim.Trace.operation_count (Sim.Engine.trace e))

(* At a crashed process the first invocation is recorded and stays
   pending; later ones are swallowed, so the trace stays well-formed. *)
let test_crashed_invocations () =
  let faults =
    { Sim.Fault.none with specs = [ Sim.Fault.crash ~proc:0 ~at:(rat 1 1) ] }
  in
  let e =
    Sim.Engine.create ~faults ~model ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ~handlers:
        {
          on_invoke = (fun _ _ -> Alcotest.fail "a crashed process ran");
          on_receive = (fun _ ~src:_ () -> ());
          on_timer = (fun _ () -> ());
        }
      ()
  in
  Sim.Engine.schedule_invoke e ~at:(rat 2 1) ~proc:0 "first";
  Sim.Engine.schedule_invoke e ~at:(rat 3 1) ~proc:0 "second";
  Sim.Engine.run e;
  let trace = Sim.Engine.trace e in
  Alcotest.(check (list (pair int string)))
    "first invocation pending" [ (0, "first") ]
    (Sim.Trace.pending_invocations trace);
  Alcotest.(check int) "one invocation recorded" 1
    (List.length
       (List.filter
          (function Sim.Trace.Invoke _ -> true | _ -> false)
          (Sim.Trace.events trace)))

(* The event queue is the domain's spare, taken by [create] and given
   back by [release].  A run in a fresh domain starts without one, so
   it shows the run on a fresh queue. *)
let in_fresh_domain f = Domain.join (Domain.spawn f)

(* Pings, waits and clock reads that tie at the same instants, so the
   trace depends on the queue's FIFO tie-break. *)
let tied_run e =
  List.iter
    (fun (at, proc, inv) -> Sim.Engine.schedule_invoke e ~at ~proc inv)
    [
      (Rat.zero, 0, "ping"); (Rat.zero, 1, "wait"); (Rat.zero, 2, "ping");
      (rat 8 1, 1, "ping"); (rat 16 1, 0, "wait"); (rat 16 1, 2, "clock");
    ];
  Sim.Engine.run e;
  Sim.Trace.events (Sim.Engine.trace e)

(* A run cut by the step limit leaves entries in its queue.  Released,
   that queue serves the next engine on the domain, whose run is the
   one a fresh queue gives: the leftovers are gone and ties break as
   on a fresh queue.  An engine created while the spare is held gets a queue
   of its own, so the two runs side by side do not meet. *)
let test_reused_queue_runs_like_fresh () =
  let cut = make_engine ~on_local_time:no_clock () in
  for proc = 0 to 2 do
    Sim.Engine.schedule_invoke cut ~at:(Rat.of_int proc) ~proc "ping"
  done;
  (match Sim.Engine.run ~max_events:2 cut with
  | exception Sim.Engine.Step_limit_exceeded 2 -> ()
  | () -> Alcotest.fail "expected the step limit");
  Sim.Engine.release cut;
  let reused = make_engine ~on_local_time:no_clock () in
  let own = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke own ~at:(rat 1 2) ~proc:0 "wait";
  let expected =
    in_fresh_domain (fun () ->
        tied_run (make_engine ~on_local_time:no_clock ()))
  in
  Alcotest.(check int) "every event of the run" 28 (List.length expected);
  Alcotest.(check bool) "the fresh queue's trace" true
    (tied_run reused = expected);
  Sim.Engine.run own;
  Alcotest.(check int) "the other engine ran its own event alone" 1
    (Sim.Trace.operation_count (Sim.Engine.trace own))

(* A released engine refuses to schedule or run by name: its queue
   may already serve another engine. *)
let test_released_engine_refuses () =
  let e = make_engine ~on_local_time:no_clock () in
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "ping";
  Sim.Engine.release e;
  Sim.Engine.release e;
  Alcotest.check_raises "schedule_invoke"
    (Invalid_argument "Engine.schedule_invoke: the engine's queue was released")
    (fun () -> Sim.Engine.schedule_invoke e ~at:Rat.one ~proc:1 "ping");
  Alcotest.check_raises "run"
    (Invalid_argument "Engine.run: the engine's queue was released")
    (fun () -> Sim.Engine.run e);
  Alcotest.(check int) "the trace stays readable" 0
    (Sim.Trace.event_count (Sim.Engine.trace e))

(* Create an engine, drive a closed loop of two pings per process
   through it and release it: the words that cost.  The queue peaks
   below 16 entries, so a fresh queue costs its record (six fields and
   a header) and one growth, to 16 slots: four arrays of 16 words and
   a header. *)
let closed_loop_words () =
  let before = Gc.minor_words () in
  let e = make_engine ~on_local_time:no_clock () in
  let left = Array.make 3 1 in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      if left.(proc) > 0 then begin
        left.(proc) <- left.(proc) - 1;
        Sim.Engine.schedule_invoke e ~at:time ~proc "ping"
      end);
  for proc = 0 to 2 do
    Sim.Engine.schedule_invoke e ~at:(Rat.of_int proc) ~proc "ping"
  done;
  Sim.Engine.run e;
  Sim.Engine.release e;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "six operations" 6
    (Sim.Trace.operation_count (Sim.Engine.trace e));
  words

let fresh_queue = 7. +. (4. *. 17.)
let warm_run_words = 580.

(* Take the domain's spare and keep it: the next run starts cold. *)
let hold_spare () = ignore (make_engine ~on_local_time:no_clock ())

(* On a warm domain the run costs exactly the pinned words, the cold
   run's less a fresh queue; a regression that builds and grows a
   queue per run again fails here. *)
let test_warm_run_words () =
  hold_spare ();
  let cold = closed_loop_words () in
  let warm = closed_loop_words () in
  Alcotest.(check (float 0.)) "warm run" warm_run_words warm;
  Alcotest.(check (float 0.)) "cold - warm = a fresh queue" fresh_queue
    (cold -. warm);
  Alcotest.(check (float 0.)) "warm again" warm (closed_loop_words ())

(* The same through [Core.Runtime], which releases after the step
   limit too: a truncated Algorithm 1 run, then a full one, report as
   the full one does in a fresh domain; and the full run gave its queue
   back, so the next engine's run is warm. *)
let test_runtime_reuse_after_truncation () =
  let module R = Core.Runtime.Make (Spec.Fifo_queue) in
  let config ?max_events () =
    R.Config.make ?max_events ~model ~offsets:[| Rat.zero; rat 1 1; Rat.zero |]
      ~delay:(Sim.Net.random_model ~seed:3 model)
      ~algorithm:(R.Wtlw { x = rat 2 1 })
      ~workload:(R.Closed_loop { per_proc = 4; think = Rat.one; seed = 7 })
      ()
  in
  let report () = Format.asprintf "%a" R.pp_report (R.run (config ())) in
  let cut = R.run (config ~max_events:25 ()) in
  Alcotest.(check bool) "the first run was truncated" true cut.truncated;
  Alcotest.(check string) "the fresh domain's report"
    (in_fresh_domain report) (report ());
  Alcotest.(check (float 0.)) "the queue was given back" warm_run_words
    (closed_loop_words ())

(* A queue of [max_spare_capacity] slots is kept; one that grew past
   it is dropped, and the next run pays the growth again. *)
let test_large_queue_dropped () =
  let filled slots =
    let e = make_engine ~on_local_time:no_clock () in
    for i = 1 to slots do
      Sim.Engine.schedule_invoke e ~at:(Rat.of_int i) ~proc:0 "clock"
    done;
    Sim.Engine.release e
  in
  hold_spare ();
  let cold = closed_loop_words () in
  let warm = closed_loop_words () in
  filled Sim.Engine.max_spare_capacity;
  Alcotest.(check (float 0.)) "a full spare is kept" warm
    (closed_loop_words ());
  filled (Sim.Engine.max_spare_capacity + 1);
  Alcotest.(check (float 0.)) "a larger one is dropped" cold
    (closed_loop_words ())

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "ping roundtrip" `Quick test_ping_roundtrip;
          Alcotest.test_case "timer latency" `Quick test_timer_latency;
          Alcotest.test_case "local clocks" `Quick test_local_clock_offsets;
          Alcotest.test_case "skew rejected" `Quick test_skew_rejected;
          Alcotest.test_case "broadcast" `Quick test_broadcast_counts;
          Alcotest.test_case "matrix delays" `Quick test_matrix_delays_respected;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "double invoke rejected" `Quick
            test_double_invoke_rejected;
          Alcotest.test_case "invoke in past rejected" `Quick
            test_invoke_in_past_rejected;
          Alcotest.test_case "closed loop callback" `Quick
            test_response_callback_closed_loop;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "send/timer validation" `Quick
            test_send_validation;
          Alcotest.test_case "cancelled timer" `Quick
            test_cancelled_timer_does_not_fire;
          Alcotest.test_case "cancelled table drains" `Quick
            test_cancelled_table_drains;
          Alcotest.test_case "cancelled table drains after crash" `Quick
            test_cancelled_table_drains_after_crash;
          Alcotest.test_case "cancelling a fired timer is a no-op" `Quick
            test_cancel_is_idempotent;
          Alcotest.test_case "wtlw keyed queue leaves no cancelled timer"
            `Quick test_fired_cancels_leave_nothing;
          Alcotest.test_case "reliable channel leaves no cancelled timer"
            `Quick test_reliable_cancels_leave_nothing;
          Alcotest.test_case "ctx acts for the dispatched process, raw and \
                              wrapped" `Quick test_ctx_self;
          Alcotest.test_case "tag fields at their bounds" `Quick
            test_tag_bounds;
          Alcotest.test_case "n = 2^20 refused before allocating" `Quick
            test_too_many_processes;
          Alcotest.test_case "an invocation allocates nothing" `Quick
            test_invocation_allocation;
          Alcotest.test_case "pairing refusals keep their texts" `Quick
            test_pairing_refusals;
          Alcotest.test_case "crashed process: first invocation recorded"
            `Quick test_crashed_invocations;
          Alcotest.test_case "a reused queue runs like a fresh one" `Quick
            test_reused_queue_runs_like_fresh;
          Alcotest.test_case "runtime reuses the queue after truncation"
            `Quick test_runtime_reuse_after_truncation;
          Alcotest.test_case "a released engine refuses to run" `Quick
            test_released_engine_refuses;
          Alcotest.test_case "a warm run allocates no queue growth" `Quick
            test_warm_run_words;
          Alcotest.test_case "a queue above the spare capacity is dropped"
            `Quick test_large_queue_dropped;
        ] );
    ]
