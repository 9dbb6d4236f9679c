(* Cross-algorithm agreement: the three implementations realize the
   same sequential object, so on any workload of pairwise
   non-overlapping operations they must return identical response
   sequences (there is only one legal linearization).  Property-tested
   across data types, seeds and delay schedules, plus an engine
   tie-breaking regression test (deliveries precede timers at the same
   instant — closed-interval delay semantics). *)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 10 1) ~u:(rat 4 1)
let offsets = [| Rat.zero; rat 1 1; rat (-1) 1; rat 3 2 |]

(* Each operation gets its own exclusive 25-unit slot (beyond every
   algorithm's 2d worst case): process i's k-th operation runs in slot
   [k * n + i], so no two operations ever overlap. *)
let slot = rat 25 1

module Agreement (T : Spec.Data_type.S) = struct
  module R = Core.Runtime.Make (T)

  let responses ~seed ~delay_seed algorithm =
    let schedule =
      Core.Workload.random_open_loop ~n:model.n ~per_proc:6
        ~spacing:(Rat.mul_int slot model.n) ~seed
        ~gen_invocation:T.gen_invocation ()
      |> List.map (fun (e : T.invocation Core.Workload.entry) ->
             { e with at = Rat.add e.at (Rat.mul_int slot e.proc) })
    in
    let report =
      R.run
        (R.Config.make ~check:false ~model ~offsets
           ~delay:(Sim.Net.random_model ~seed:delay_seed model)
           ~algorithm ~workload:(R.Schedule schedule) ())
    in
    List.map
      (fun (op : (T.invocation, T.response) Sim.Trace.operation) ->
        Format.asprintf "%a->%a" T.pp_invocation op.inv T.pp_response op.resp)
      report.operations

  let agree ~seed ~delay_seed =
    let wtlw = responses ~seed ~delay_seed (R.Wtlw { x = rat 2 1 }) in
    let central = responses ~seed ~delay_seed R.Centralized in
    let tob = responses ~seed ~delay_seed R.Tob in
    wtlw = central && wtlw = tob
end

let check_type (module T : Spec.Data_type.S) name =
  let module A = Agreement (T) in
  QCheck.Test.make ~name:(name ^ ": algorithms agree on sequential workloads")
    ~count:20
    QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (seed, delay_seed) -> A.agree ~seed ~delay_seed)

let properties =
  [
    check_type (module Spec.Register) "register";
    check_type (module Spec.Rmw_register) "rmw-register";
    check_type (module Spec.Fifo_queue) "queue";
    check_type (module Spec.Stack_type) "stack";
    check_type (module Spec.Tree_type) "tree";
    check_type (module Spec.Set_type) "set";
    check_type (module Spec.Counter_type) "counter";
    check_type (module Spec.Priority_queue) "priority-queue";
    check_type (module Spec.Log_type) "log";
  ]

(* Engine tie-breaking: a message arriving exactly when a timer fires
   must be visible to the timer's handler. *)
let test_delivery_before_timer () =
  let seen_before_timer = ref false in
  let on_invoke (ctx : (unit, string, string) Sim.Engine.ctx) inv =
    match inv with
    | "send" ->
        ctx.send ~dst:1 ();
        ctx.respond "sent"
    | "arm" ->
        (* Timer expiring exactly when the message (delay d) lands. *)
        ignore (ctx.set_timer_after (rat 10 1) "check")
    | _ -> assert false
  in
  let got_message = ref false in
  let on_receive _ctx ~src:_ () = got_message := true in
  let on_timer (ctx : (unit, string, string) Sim.Engine.ctx) _tag =
    seen_before_timer := !got_message;
    ctx.respond "checked"
  in
  let e =
    Sim.Engine.create ~model
      ~offsets:(Array.make 4 Rat.zero)
      ~delay:(Sim.Net.max_delay_model model)
      ~handlers:{ on_invoke; on_receive; on_timer }
      ()
  in
  (* p1 arms its timer at t=0 (fires at 10); p0 sends at t=0 (arrives
     at exactly 10). *)
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:1 "arm";
  Sim.Engine.schedule_invoke e ~at:Rat.zero ~proc:0 "send";
  Sim.Engine.run e;
  Alcotest.(check bool) "boundary delivery visible to timer handler" true
    !seen_before_timer

let () =
  Alcotest.run "agreement"
    [
      ( "engine semantics",
        [
          Alcotest.test_case "delivery before timer at same instant" `Quick
            test_delivery_before_timer;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest properties);
    ]
