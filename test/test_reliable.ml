(* Tests for the reliable ack/retransmit channel: the d' = d + k * rto
   arithmetic, config validation, and end-to-end exactly-once FIFO
   recovery over a lossy network certified by the checker. *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1)

module R = Core.Runtime.Make (Spec.Register)

let test_retry_budget_constant_backoff () =
  let c = Core.Reliable.config ~rto:(rat 2 1) ~max_retries:6 () in
  Alcotest.(check string) "k * rto" "12"
    (Rat.to_string (Core.Reliable.retry_budget c));
  Alcotest.(check string) "d' = d + k * rto" "22"
    (Rat.to_string (Core.Reliable.effective_delay c ~d:(rat 10 1)))

let test_default_config () =
  let c = Core.Reliable.default_config model in
  Alcotest.(check string) "rto is a round trip" "20" (Rat.to_string c.rto);
  Alcotest.(check int) "six retries" 6 c.max_retries

let test_inflated_model () =
  let c = Core.Reliable.default_config model in
  let m = Core.Reliable.inflated_model c model in
  (* d' = d + 6 * 2d = 13d = 130; the layer guarantees no minimum. *)
  Alcotest.(check string) "d'" "130" (Rat.to_string m.d);
  Alcotest.(check string) "u' = d'" "130" (Rat.to_string m.u);
  Alcotest.(check string) "eps unchanged" "1" (Rat.to_string m.eps);
  let spiked =
    Core.Reliable.inflated_model ~max_spike:(rat 200 1) c model
  in
  Alcotest.(check string) "spike dominates" "210" (Rat.to_string spiked.d);
  let skewed =
    Core.Reliable.inflated_model ~extra_skew:(rat 3 1) c model
  in
  Alcotest.(check string) "eps widened" "4" (Rat.to_string skewed.eps)

let test_config_validation () =
  let invalid f = Alcotest.match_raises "rejected" (function
      | Invalid_argument _ -> true
      | _ -> false)
      (fun () -> ignore (f ()))
  in
  invalid (fun () -> Core.Reliable.config ~rto:Rat.zero ());
  invalid (fun () -> Core.Reliable.config ~rto:(rat 1 1) ~max_retries:(-1) ())

(* An application that never sends: the channel's own cost shows alone. *)
let idle_app : (int, unit, unit, unit) Sim.Engine.handlers =
  {
    on_invoke = (fun _ () -> ());
    on_receive = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ () -> ());
  }

(* A retransmission timer's tag packs (dst, seq, attempt) into one int;
   the values at the edge of each field are refused by name rather than
   wrapped into a neighbour, and the ones inside round-trip. *)
let test_retransmit_tag_bounds () =
  let module T = Core.Reliable.Retransmit_tag in
  let refused msg f =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  let dst = (1 lsl 20) - 1
  and seq = T.seq_limit - 1
  and attempt = T.max_retries + 1 in
  let tag = T.pack ~dst ~seq ~attempt in
  Alcotest.(check bool) "non-negative" true (tag >= 0);
  Alcotest.(check (list int)) "round trip at the bound" [ dst; seq; attempt ]
    [ T.dst tag; T.seq tag; T.attempt tag ];
  refused "Reliable: sequence number 2^34 does not fit the retransmit tag"
    (fun () -> T.pack ~dst:0 ~seq:T.seq_limit ~attempt:1);
  let rto = rat 1 1 in
  Alcotest.(check int) "the largest count accepted" T.max_retries
    (Core.Reliable.config ~rto ~max_retries:T.max_retries ()).max_retries;
  refused
    "Reliable.config: max_retries 255 exceeds 254, the most a retransmit \
     tag counts to"
    (fun () -> Core.Reliable.config ~rto ~max_retries:(T.max_retries + 1) ());
  (* A config built as a record is refused by [wrap] alike. *)
  refused
    "Reliable.wrap: max_retries 255 exceeds 254, the most a retransmit tag \
     counts to"
    (fun () ->
      Core.Reliable.wrap ~config:{ rto; max_retries = T.max_retries + 1 } ~n:3
        idle_app);
  (* So is an [n] whose destinations a tag cannot hold, before anything
     of size [n * n] is allocated. *)
  refused "Reliable.wrap: n above 2^20 does not fit the retransmit tag"
    (fun () ->
      Core.Reliable.wrap ~config:(Core.Reliable.config ~rto ())
        ~n:((1 lsl 20) + 1) idle_app)

(* The channel's set-up is flat: eight arrays of [n * n] slots (80
   words at n = 3, 136 at n = 4) and the closures, with every ring left
   empty until its stream's first entry. *)
let test_wrap_allocation () =
  let config = Core.Reliable.default_config model in
  List.iter
    (fun (n, pinned) ->
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Core.Reliable.wrap ~config ~n idle_app));
      let words = Gc.minor_words () -. before in
      if words > pinned then
        Alcotest.failf "wrap at n = %d: %.0f words, pinned at %.0f" n words
          pinned)
    [ (3, 162.); (4, 218.) ]

(* Once a stream's rings exist, a fault-free send -> deliver -> ack
   round trip allocates exactly its wire messages, the [Payload] (3
   words) and the [Ack] (2), and the retransmission timer's one-int tag
   (2).  The ctx is a stub whose closures allocate nothing. *)
let test_round_trip_allocation () =
  let delivered = ref 0 in
  let app : (int, unit, unit, unit) Sim.Engine.handlers =
    {
      on_invoke = (fun ctx () -> ctx.send ~dst:1 7);
      on_receive = (fun _ ~src:_ m -> delivered := !delivered + m);
      on_timer = (fun _ () -> ());
    }
  in
  let handlers, stats =
    Core.Reliable.wrap ~config:(Core.Reliable.default_config model) ~n:3 app
  in
  let last = ref (Core.Reliable.Ack { seq = -1 }) in
  let ids = ref 0 and cancelled = ref (-1) in
  let ctx :
      (int Core.Reliable.wire, unit Core.Reliable.timer, unit) Sim.Engine.ctx =
    {
      self = 0;
      n = 3;
      real_time = Rat.zero;
      local_time = Rat.zero;
      send = (fun ~dst:_ m -> last := m);
      broadcast = (fun _ -> ());
      set_timer_after =
        (fun _ _ ->
          incr ids;
          !ids);
      cancel_timer = (fun id -> cancelled := id);
      respond = (fun () -> ());
    }
  in
  let round () =
    ctx.self <- 0;
    handlers.on_invoke ctx ();
    let payload = !last in
    ctx.self <- 1;
    handlers.on_receive ctx ~src:0 payload;
    let ack = !last in
    ctx.self <- 0;
    handlers.on_receive ctx ~src:1 ack
  in
  round ();
  let before = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "both payloads delivered" 14 !delivered;
  Alcotest.(check int) "both payloads acked" 2 stats.Core.Reliable.acked;
  Alcotest.(check int) "the live timer was cancelled" !ids !cancelled;
  Alcotest.(check (float 0.)) "payload, ack and tag" 7. words

let run_reliable ~faults =
  R.run
    (R.Config.reliable
       (R.Config.make ~faults ~max_events:500_000 ~model
          ~offsets:(Array.make 3 Rat.zero)
          ~delay:(Sim.Net.random_model ~seed:7 model)
          ~algorithm:(R.Wtlw { x = rat 2 1 })
          ~workload:
            (R.Closed_loop { per_proc = 3; think = Rat.make 1 2; seed = 7 })
          ()))

let channel_stats (report : R.report) =
  match report.channel with
  | None -> Alcotest.fail "reliable run has no channel section"
  | Some c -> c.stats

let test_fault_free_run () =
  let report = run_reliable ~faults:Sim.Fault.none in
  let stats = channel_stats report in
  Alcotest.(check bool) "certified" true (R.ok report);
  Alcotest.(check bool) "payloads flowed" true
    (stats.Core.Reliable.sent > 0);
  (* Acks always beat the rto = 2d retransmission timer on a fault-free
     network (deliveries win ties), so the layer is quiescent. *)
  Alcotest.(check int) "no spurious retransmits" 0
    stats.Core.Reliable.retransmits

let test_recovers_from_drops () =
  let report =
    run_reliable ~faults:(Sim.Fault.plan ~seed:7 [ Sim.Fault.drops 0.4 ])
  in
  let stats = channel_stats report in
  Alcotest.(check bool) "drops actually injected" true
    (report.faults.dropped > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (stats.Core.Reliable.retransmits > 0);
  (* [exhausted] may be nonzero here: losing every ack of a payload
     abandons the sender's retry loop even though a copy was delivered.
     Correctness is judged by the report, not by that counter. *)
  Alcotest.(check int) "every operation completed" 0 report.pending;
  Alcotest.(check bool) "linearizable end-to-end" true (R.ok report);
  Alcotest.(check bool) "the report names the faults" true
    (List.mem
       (Printf.sprintf
          "faults: %d dropped, 0 duplicated, 0 spiked, 0 crashed, 0 skewed"
          report.faults.dropped)
       (String.split_on_char '\n' (Format.asprintf "%a" R.pp_report report)))

(* [unhealthy] names the first failed clause in a fixed order, and
   allocates nothing on a healthy run. *)
let test_health_clauses () =
  let r = run_reliable ~faults:Sim.Fault.none in
  let before = Gc.minor_words () in
  let healthy = R.unhealthy r in
  Alcotest.(check (float 0.)) "no words" 0. (Gc.minor_words () -. before);
  let named = Alcotest.(check (option string)) in
  named "healthy" None healthy;
  let r =
    { r with delays_admissible = false; skew_admissible = false; truncated = true }
  in
  named "pending first" (Some "2 invocations never completed")
    (R.unhealthy { r with pending = 2 });
  named "then delays" (Some "delays left the model envelope") (R.unhealthy r);
  named "then skew" (Some "clock skew exceeded eps")
    (R.unhealthy { r with delays_admissible = true });
  named "truncation last" (Some "run truncated at the step limit")
    (R.unhealthy { r with delays_admissible = true; skew_admissible = true })

let test_recovers_from_duplicates () =
  let report =
    run_reliable
      ~faults:(Sim.Fault.plan ~seed:7 [ Sim.Fault.duplicates 0.5 ])
  in
  let stats = channel_stats report in
  Alcotest.(check bool) "duplicates actually injected" true
    (report.faults.duplicated > 0);
  Alcotest.(check bool) "receiver deduplicated" true
    (stats.Core.Reliable.duplicates > 0);
  Alcotest.(check bool) "linearizable end-to-end" true (R.ok report)

let test_recovers_from_storm () =
  let report =
    run_reliable
      ~faults:
        (Sim.Fault.plan ~seed:7
           [
             Sim.Fault.drops 0.25;
             Sim.Fault.duplicates 0.25;
             Sim.Fault.spikes ~margin:(rat 5 1) 0.2;
           ])
  in
  Alcotest.(check bool) "linearizable under combined faults" true
    (R.ok report)

(* The wrapped handlers get one cached ctx per process.  It must read
   the current clocks on every event: with nonzero offsets, each
   application timer and each application receive compares the ctx's
   [real_time]/[local_time] with the engine's clock, over several
   operations per process so a ctx stamped once would be caught. *)
type ping = Ping | Pong

let test_cached_ctx_restamped ~faults () =
  let offsets = [| Rat.zero; rat 1 2; rat (-1) 2 |] in
  let engine = ref None in
  let timers = ref 0 and receives = ref 0 in
  let check_clocks what (ctx : (ping, unit, unit) Sim.Engine.ctx) =
    let now = Sim.Engine.now (Option.get !engine) in
    Alcotest.(check string) (what ^ ": real time") (Rat.to_string now)
      (Rat.to_string ctx.real_time);
    Alcotest.(check string) (what ^ ": local time")
      (Rat.to_string (Rat.add now offsets.(ctx.self)))
      (Rat.to_string ctx.local_time)
  in
  let app : (ping, unit, unit, unit) Sim.Engine.handlers =
    {
      on_invoke =
        (fun ctx () ->
          check_clocks "invoke" ctx;
          ctx.send ~dst:((ctx.self + 1) mod ctx.n) Ping;
          ignore (ctx.set_timer_after (rat 3 1) ()));
      on_receive =
        (fun ctx ~src msg ->
          incr receives;
          check_clocks "receive" ctx;
          match msg with Ping -> ctx.send ~dst:src Pong | Pong -> ());
      on_timer =
        (fun ctx () ->
          incr timers;
          check_clocks "timer" ctx;
          ctx.respond ());
    }
  in
  let handlers, _ =
    Core.Reliable.wrap ~config:(Core.Reliable.default_config model) ~n:3 app
  in
  let e =
    Sim.Engine.create ~faults ~model ~offsets
      ~delay:(Sim.Net.random_model ~seed:11 model)
      ~handlers ()
  in
  engine := Some e;
  let left = Array.make 3 4 in
  Sim.Engine.set_response_callback e (fun ~proc ~inv:_ ~resp:_ ~time ->
      left.(proc) <- left.(proc) - 1;
      if left.(proc) > 0 then
        Sim.Engine.schedule_invoke e ~at:(Rat.add time (rat 7 3)) ~proc ());
  Array.iteri
    (fun proc _ -> Sim.Engine.schedule_invoke e ~at:(rat proc 5) ~proc ())
    left;
  Sim.Engine.run e;
  Alcotest.(check int) "every application timer fired" 12 !timers;
  Alcotest.(check bool) "application receives happened" true (!receives >= 12)

(* The wrapped handlers share one application ctx, re-stamped per
   event like the engine's.  For n = 2..5, under drops and duplicates
   (so retransmissions and acks of one process interleave with the
   events of another): each process is invoked with its own id, each
   timer carries its setter's, each message names its sender and its
   addressee ([-1] for a broadcast), and each response must complete
   the responding process's own operation.  test_engine runs the same
   protocol raw and wrapped on a fault-free network. *)
type stamped = { from : int; dest : int }

let test_ctx_self_per_process () =
  for n = 2 to 5 do
    let model =
      Sim.Model.make ~n ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1)
    in
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
    let expect what ~proc (ctx : (stamped, int, int) Sim.Engine.ctx) =
      if ctx.self <> proc then fail "%s for %d: ctx.self = %d" what proc ctx.self
    in
    let app : (stamped, int, int, int) Sim.Engine.handlers =
      {
        on_invoke =
          (fun ctx proc ->
            expect "invoke" ~proc ctx;
            let next = (ctx.self + 1) mod ctx.n in
            ctx.send ~dst:next { from = ctx.self; dest = next };
            ctx.broadcast { from = ctx.self; dest = -1 };
            ignore (ctx.set_timer_after (rat (31 + ctx.self) 3) ctx.self));
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
    let handlers, channel =
      Core.Reliable.wrap ~config:(Core.Reliable.default_config model) ~n app
    in
    let e =
      Sim.Engine.create
        ~faults:
          (Sim.Fault.plan ~seed:n
             [ Sim.Fault.drops 0.2; Sim.Fault.duplicates 0.2 ])
        ~model ~offsets:(Array.make n Rat.zero)
        ~delay:(Sim.Net.random_model ~seed:n model)
        ~handlers ()
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
    let label = Printf.sprintf "n = %d" n in
    Alcotest.(check (list string))
      (label ^ ": every ctx acts for its process")
      [] (List.rev !failures);
    Alcotest.(check int)
      (label ^ ": every operation completed")
      (3 * n)
      (Sim.Trace.operation_count (Sim.Engine.trace e));
    Alcotest.(check bool)
      (label ^ ": payloads were retransmitted")
      true
      (channel.Core.Reliable.retransmits > 0)
  done

(* Twelve payloads sent at one instant on one stream, over drops,
   duplicates and reordering: the sender's ring of unacknowledged
   payloads grows 2 -> 4 -> 8 -> 16 while they are in flight, and the
   receiver's hold-back ring grows behind the gaps.  Every payload must
   still reach the application exactly once and in order. *)
let test_window_growth_keeps_fifo () =
  let burst = 12 in
  List.iter
    (fun seed ->
      let received = ref [] in
      let app : (int, unit, unit, unit) Sim.Engine.handlers =
        {
          on_invoke =
            (fun ctx () ->
              for i = 0 to burst - 1 do
                ctx.send ~dst:1 i
              done;
              ctx.respond ());
          on_receive = (fun _ ~src:_ i -> received := i :: !received);
          on_timer = (fun _ () -> ());
        }
      in
      let handlers, channel =
        Core.Reliable.wrap
          ~config:(Core.Reliable.config ~rto:(rat 20 1) ~max_retries:20 ())
          ~n:3 app
      in
      let e =
        Sim.Engine.create
          ~faults:
            (Sim.Fault.plan ~seed
               [ Sim.Fault.drops 0.3; Sim.Fault.duplicates 0.3 ])
          ~model ~offsets:(Array.make 3 Rat.zero)
          ~delay:(Sim.Net.random_model ~seed model)
          ~handlers ()
      in
      Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 ();
      Sim.Engine.run e;
      let label = Printf.sprintf "seed %d" seed in
      Alcotest.(check (list int))
        (label ^ ": in order, once each")
        (List.init burst Fun.id) (List.rev !received);
      Alcotest.(check bool)
        (label ^ ": drops injected") true
        ((Sim.Trace.fault_counts (Sim.Engine.trace e)).dropped > 0);
      Alcotest.(check int)
        (label ^ ": nothing abandoned") 0
        channel.Core.Reliable.exhausted)
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let () =
  Alcotest.run "reliable"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "constant backoff budget" `Quick
            test_retry_budget_constant_backoff;
          Alcotest.test_case "default config" `Quick test_default_config;
          Alcotest.test_case "inflated model" `Quick test_inflated_model;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "retransmit tag bounds" `Quick
            test_retransmit_tag_bounds;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "wrap at n = 3 and 4" `Quick test_wrap_allocation;
          Alcotest.test_case "a round trip allocates only the wire" `Quick
            test_round_trip_allocation;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "fault-free is quiescent" `Quick
            test_fault_free_run;
          Alcotest.test_case "recovers from drops" `Quick
            test_recovers_from_drops;
          Alcotest.test_case "recovers from duplicates" `Quick
            test_recovers_from_duplicates;
          Alcotest.test_case "health clauses named in order" `Quick
            test_health_clauses;
          Alcotest.test_case "window growth keeps FIFO" `Quick
            test_window_growth_keeps_fifo;
          Alcotest.test_case "ctx acts for the dispatched process" `Quick
            test_ctx_self_per_process;
          Alcotest.test_case "recovers from a storm" `Quick
            test_recovers_from_storm;
          Alcotest.test_case "cached ctx reads the current clocks" `Quick
            (test_cached_ctx_restamped ~faults:Sim.Fault.none);
          Alcotest.test_case "cached ctx reads the clocks under drops" `Quick
            (test_cached_ctx_restamped
               ~faults:
                 (Sim.Fault.plan ~seed:5
                    [ Sim.Fault.drops 0.3; Sim.Fault.duplicates 0.2 ]));
        ] );
    ]
