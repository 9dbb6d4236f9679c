(* Tests for model parameters and delay models. *)

let rat = Rat.make
let model = Sim.Model.make ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 3 1)

let test_model_validation () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s should be rejected" label
  in
  expect_invalid "n=1" (fun () ->
      Sim.Model.make ~n:1 ~d:Rat.one ~u:Rat.zero ~eps:Rat.zero);
  expect_invalid "d=0" (fun () ->
      Sim.Model.make ~n:2 ~d:Rat.zero ~u:Rat.zero ~eps:Rat.zero);
  expect_invalid "u<0" (fun () ->
      Sim.Model.make ~n:2 ~d:Rat.one ~u:(rat (-1) 1) ~eps:Rat.zero);
  expect_invalid "u>d" (fun () ->
      Sim.Model.make ~n:2 ~d:Rat.one ~u:(rat 2 1) ~eps:Rat.zero);
  expect_invalid "eps<0" (fun () ->
      Sim.Model.make ~n:2 ~d:Rat.one ~u:Rat.zero ~eps:(rat (-1) 1))

let test_derived_quantities () =
  Alcotest.(check string) "min delay" "6" (Rat.to_string (Sim.Model.min_delay model));
  Alcotest.(check string)
    "optimal eps = (1-1/4)*4 = 3" "3"
    (Rat.to_string (Sim.Model.optimal_eps model));
  let opt = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) in
  Alcotest.(check string) "make_optimal_eps" "3" (Rat.to_string opt.eps)

let test_delay_valid () =
  Alcotest.(check bool) "d valid" true (Sim.Model.delay_valid model (rat 10 1));
  Alcotest.(check bool) "d-u valid" true (Sim.Model.delay_valid model (rat 6 1));
  Alcotest.(check bool) "below d-u invalid" false
    (Sim.Model.delay_valid model (rat 59 10));
  Alcotest.(check bool) "above d invalid" false
    (Sim.Model.delay_valid model (rat 101 10))

let test_skew_valid () =
  Alcotest.(check bool) "zero offsets" true
    (Sim.Model.skew_valid model (Array.make 4 Rat.zero));
  Alcotest.(check bool) "within eps" true
    (Sim.Model.skew_valid model [| Rat.zero; rat 3 1; rat 1 1; rat 2 1 |]);
  Alcotest.(check bool) "beyond eps" false
    (Sim.Model.skew_valid model [| Rat.zero; rat 7 2; Rat.zero; Rat.zero |]);
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Model.skew_valid: offsets array has wrong length")
    (fun () -> ignore (Sim.Model.skew_valid model [| Rat.zero |]))

let test_constant_and_matrix () =
  let c = Sim.Net.constant (rat 7 1) in
  Alcotest.(check string) "constant" "7"
    (Rat.to_string (Sim.Net.delay c ~src:0 ~dst:1 ~time:Rat.zero ~seq:0));
  let m = Sim.Net.uniform_matrix ~n:3 (rat 8 1) in
  m.(0).(1) <- rat 6 1;
  let net = Sim.Net.matrix m in
  Alcotest.(check string) "matrix entry" "6"
    (Rat.to_string (Sim.Net.delay net ~src:0 ~dst:1 ~time:Rat.zero ~seq:0));
  Alcotest.(check string) "matrix default" "8"
    (Rat.to_string (Sim.Net.delay net ~src:1 ~dst:0 ~time:Rat.zero ~seq:0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Net.delay: index out of range") (fun () ->
      ignore (Sim.Net.delay net ~src:0 ~dst:5 ~time:Rat.zero ~seq:0))

let test_matrix_valid () =
  let good = Sim.Net.uniform_matrix ~n:4 (rat 8 1) in
  Alcotest.(check bool) "uniform valid" true (Sim.Net.matrix_valid model good);
  good.(2).(3) <- rat 5 1;
  Alcotest.(check bool) "entry below range" false
    (Sim.Net.matrix_valid model good);
  (* Diagonal entries are ignored. *)
  let diag = Sim.Net.uniform_matrix ~n:4 (rat 8 1) in
  diag.(1).(1) <- Rat.zero;
  Alcotest.(check bool) "diagonal ignored" true (Sim.Net.matrix_valid model diag)

(* The skew rule is max - min <= eps, read in one pass: it must agree
   with the pairwise definition, |c_i - c_j| <= eps for all i, j, and
   its skew with the largest pairwise one. *)
let prop_skew_is_pairwise =
  QCheck.Test.make ~name:"skew_valid is the pairwise rule" ~count:500
    QCheck.(pair (int_range 2 6) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let offsets =
        Array.init n (fun _ ->
            rat (Random.State.int rng 41 - 20) (1 + Random.State.int rng 6))
      in
      let eps = rat (Random.State.int rng 30) (1 + Random.State.int rng 4) in
      let m = Sim.Model.make ~n ~d:(rat 100 1) ~u:(rat 4 1) ~eps in
      let worst = ref Rat.zero in
      Array.iter
        (fun a ->
          Array.iter
            (fun b -> worst := Rat.max !worst (Rat.abs (Rat.sub a b)))
            offsets)
        offsets;
      Sim.Model.skew_valid m offsets = Rat.le !worst eps
      && Rat.equal (Sim.Model.max_skew offsets) !worst)

(* On integer offsets, as a run's are in quanta, a check allocates
   nothing. *)
let test_skew_valid_allocates_nothing () =
  List.iter
    (fun offsets ->
      let m =
        Sim.Model.make ~n:(Array.length offsets) ~d:(rat 12 1) ~u:(rat 4 1)
          ~eps:(rat 3 1)
      in
      let before = Gc.minor_words () in
      let ok = Sim.Model.skew_valid m offsets in
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) "within eps" true ok;
      Alcotest.(check (float 0.))
        (Printf.sprintf "n = %d" (Array.length offsets))
        0. words)
    [ [| rat 0 1; rat 3 1; rat 1 1 |]; [| rat 2 1; rat 0 1; rat (-1) 1; rat 1 1 |] ]

let test_random_deterministic () =
  let sample net =
    List.init 20 (fun seq ->
        Rat.to_string (Sim.Net.delay net ~src:0 ~dst:1 ~time:Rat.zero ~seq))
  in
  let a = sample (Sim.Net.random_model ~seed:5 model) in
  let b = sample (Sim.Net.random_model ~seed:5 model) in
  let c = sample (Sim.Net.random_model ~seed:6 model) in
  Alcotest.(check (list string)) "same seed same delays" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c)

let prop_random_in_range =
  QCheck.Test.make ~name:"random delays lie in [d-u, d]" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let net = Sim.Net.random_model ~seed model in
      List.for_all
        (fun seq ->
          Sim.Model.delay_valid model
            (Sim.Net.delay net ~src:1 ~dst:2 ~time:Rat.zero ~seq))
        (List.init 50 Fun.id))

(* ---------- the run's time quantum (Core.Runtime) ---------- *)

module RQ = Core.Runtime.Make (Spec.Fifo_queue)

let check_quantum label expected cfg =
  Alcotest.(check int) label expected (RQ.quantum cfg)

let load_model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1)

(* The load benchmark's run: d = 12, u = 4, eps = 3 and X = 3 are
   integers and so are Algorithm 1's waits; the delay grid steps by
   u/16 = 1/4, and generator arrivals by 1/1024. *)
let test_quantum_load_model () =
  let gen =
    Core.Workload.Gen.create
      ~arrival:(Core.Workload.Poisson { rate = rat 1 4 })
      ~keys:4 ~ops:10 ~seed:1
      ~invocation:(fun rng ~key:_ ~seq -> Spec.Fifo_queue.gen_tagged rng ~tag:seq)
      ()
  in
  let route = Core.Workload.Route.create ~procs:4 ~keep:(fun _ -> true) gen in
  let cfg ~workload =
    RQ.Config.make ~model:load_model
      ~offsets:(Array.make 4 Rat.zero)
      ~delay:(Sim.Net.random_model ~seed:1 load_model)
      ~algorithm:(RQ.Wtlw { x = rat 3 1 })
      ~workload ()
  in
  check_quantum "generator arrivals" 1024
    (cfg
       ~workload:
         (RQ.Paced
            {
              route;
              lift = (fun ~key:_ inv -> inv);
              tick = rat 1 Core.Workload.Gen.quantum;
            }));
  (match
     RQ.quantum
       (cfg
          ~workload:
            (RQ.Paced
               { route; lift = (fun ~key:_ inv -> inv); tick = Rat.zero }))
   with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "a tick of 0 is refused"
        "Runtime.run: Paced tick <= 0" msg
  | _ -> Alcotest.fail "a tick of 0 should be refused");
  check_quantum "integer schedule: the delay grid's 1/4" 4
    (cfg
       ~workload:
         (RQ.Schedule
            [ Core.Workload.entry ~proc:0 ~at:(rat 5 1) (Spec.Fifo_queue.Enqueue 1) ]))

(* A generated scenario on the 3-process point (d = 10, u = 4,
   eps = 1): X = (d - eps)/2 = 9/2, the delay grid steps by 1/4, and
   the closed loop's first invocations come at multiples of 1/6 — an
   odd denominator. *)
let test_quantum_generated_scenario () =
  let rec find seed =
    let s = Scenario.gen ~seed in
    match (s.model.Sim.Model.n, s.delays, s.workload, s.algorithm) with
    | ( 3,
        Scenario.Random_delays,
        Scenario.Closed_loop _,
        Scenario.Wtlw { knob = Core.Ablation.Paper; x } )
      when (not s.reliable) && String.equal s.dt "queue"
           && Rat.equal x (rat 9 2) ->
        s
    | _ -> find (seed + 1)
  in
  let s = find 1 in
  let module E = Scenario.Exec.Run (Spec.Fifo_queue) in
  match E.config_of s with
  | Error e -> Alcotest.fail e
  | Ok cfg ->
      check_quantum "lcm of 2, 4 and 6" 12 cfg

(* Odd denominators everywhere: d = 22/3, u = 2/7, eps = 1/5, so
   X = (d - eps)/2 = 107/30, the add wait d - u = 148/21, the execute
   wait u + eps = 17/35, and a closed loop of n = 3 starts at
   multiples of 1/6. *)
let test_quantum_odd_denominators () =
  let model = Sim.Model.make ~n:3 ~d:(rat 22 3) ~u:(rat 2 7) ~eps:(rat 1 5) in
  check_quantum "lcm of 3, 7, 5, 30, 21, 35 and 6" 210
    (RQ.Config.make ~model
       ~offsets:(Array.make 3 Rat.zero)
       ~delay:(Sim.Net.max_delay_model model)
       ~algorithm:(RQ.Wtlw { x = rat 107 30 })
       ~workload:(RQ.Closed_loop { per_proc = 1; think = Rat.one; seed = 1 })
       ())

(* An ablation override is part of the run: shortening the execute
   wait to (u + eps)/4 = 5/4 brings in a 4 that the repaired timing,
   all integers here, does not have. *)
let test_quantum_ablation_timing () =
  let model = Sim.Model.make ~n:3 ~d:(rat 12 1) ~u:(rat 4 1) ~eps:(rat 1 1) in
  let cfg ?timing () =
    RQ.Config.make ?timing ~model
      ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.max_delay_model model)
      ~algorithm:(RQ.Wtlw { x = rat 3 1 })
      ~workload:
        (RQ.Schedule
           [ Core.Workload.entry ~proc:0 ~at:(rat 2 1) (Spec.Fifo_queue.Enqueue 1) ])
      ()
  in
  check_quantum "repaired timing" 1 (cfg ());
  let knob = Core.Ablation.Short_execute_wait (Rat.div_int (Rat.add model.u model.eps) 4) in
  check_quantum "execute wait (u + eps)/4" 4
    (cfg ~timing:(fun m ~x -> Core.Ablation.timing_of_knob m ~x knob) ())

let expect_refused label ~sub f =
  match f () with
  | exception Invalid_argument msg ->
      let n = String.length sub in
      if
        not
          (Seq.exists
             (fun i -> String.sub msg i n = sub)
             (Seq.init (String.length msg - n + 1) Fun.id))
      then Alcotest.failf "%s: refused as %S, not by %S" label msg sub
  | _ -> Alcotest.failf "%s should be refused" label

(* A quantum, or a horizon in quanta, beyond an int is refused by
   name before anything runs. *)
let test_quantum_limits () =
  let cfg ?max_events ~offsets () =
    RQ.Config.make ?max_events ~model:load_model ~offsets
      ~delay:(Sim.Net.random_model ~seed:1 load_model)
      ~algorithm:(RQ.Wtlw { x = rat 3 1 })
      ~workload:(RQ.Closed_loop { per_proc = 1; think = Rat.one; seed = 1 })
      ()
  in
  let zero = Array.make 4 Rat.zero in
  check_quantum "closed loop of 4" 8 (cfg ~offsets:zero ());
  expect_refused "horizon" ~sub:"unrepresentable time horizon" (fun () ->
      RQ.quantum (cfg ~max_events:(max_int / 4) ~offsets:zero ()));
  expect_refused "horizon, run" ~sub:"unrepresentable time horizon" (fun () ->
      RQ.run (cfg ~max_events:(max_int / 4) ~offsets:zero ()));
  (* a schedule's chains are short, but an entry's own time still
     counts *)
  let schedule at =
    RQ.Config.make ~model:load_model ~offsets:zero
      ~delay:(Sim.Net.random_model ~seed:1 load_model)
      ~algorithm:(RQ.Wtlw { x = rat 3 1 })
      ~workload:
        (RQ.Schedule [ { proc = 0; at; inv = Spec.Fifo_queue.Enqueue 1 } ])
      ()
  in
  check_quantum "schedule at 2^40" 4 (schedule (Rat.of_int (1 lsl 40)));
  expect_refused "schedule entry" ~sub:"unrepresentable time horizon"
    (fun () -> RQ.quantum (schedule (Rat.of_int (max_int / 4))));
  (* three primes near 2^21: their product does not fit in 63 bits *)
  let offsets = [| Rat.zero; rat 1 2097143; rat 1 2097169; rat 1 2097191 |] in
  expect_refused "quantum" ~sub:"unrepresentable time quantum" (fun () ->
      RQ.quantum (cfg ~offsets ()))

(* ---------- scale invariance ---------- *)

(* Multiplying every time a run reads by [k] — model, X, offsets,
   delays, fault times, the channel's timeout and the workload's
   times — gives the same run with every time multiplied by [k].
   Closed-loop runs start at fixed multiples of 1/(2n) that no config
   field scales, so they are left out. *)
module Scaled (X : Scenario.Packed_type.RUNNER) = struct
  let scale k (cfg : X.R.Config.t) : X.R.Config.t =
    let s r = Rat.mul_int r k in
    let m = cfg.model in
    {
      cfg with
      model = Sim.Model.make ~n:m.n ~d:(s m.d) ~u:(s m.u) ~eps:(s m.eps);
      offsets = Array.map s cfg.offsets;
      delay = Sim.Net.scale k cfg.delay;
      faults =
        {
          cfg.faults with
          specs =
            List.map
              (function
                | Sim.Fault.Spike sp -> Sim.Fault.Spike { sp with margin = s sp.margin }
                | Crash c -> Crash { c with at = s c.at }
                | Skew sk -> Skew { sk with offset = s sk.offset }
                | spec -> spec)
              cfg.faults.specs;
        };
      channel =
        Option.map (fun (c : Core.Reliable.config) -> { c with rto = s c.rto }) cfg.channel;
      algorithm =
        (match cfg.algorithm with
        | Core.Runtime.Wtlw { x } -> Core.Runtime.Wtlw { x = s x }
        | a -> a);
      workload =
        (match cfg.workload with
        | X.R.Schedule entries ->
            X.R.Schedule
              (List.map (fun (e : _ Core.Workload.entry) -> { e with at = s e.at }) entries)
        | X.R.Paced p -> X.R.Paced { p with tick = s p.tick }
        | w -> w);
    }

  let same_times k (a : Core.Metrics.summary) (b : Core.Metrics.summary) =
    a.count = b.count
    && Rat.equal (Rat.mul_int a.min k) b.min
    && Rat.equal (Rat.mul_int a.max k) b.max
    && Rat.equal (Rat.mul_int a.mean k) b.mean

  let invariant k (s : Scenario.t) =
    match (X.config_of s, X.config_of s) with
    | Error _, _ | _, Error _ -> true
    | Ok base, Ok fresh ->
        let a = X.R.run base and b = X.R.run (scale k fresh) in
        List.length a.operations = List.length b.operations
        && a.messages = b.messages && a.events = b.events
        && a.pending = b.pending && a.truncated = b.truncated
        && a.delays_admissible = b.delays_admissible
        && a.skew_admissible = b.skew_admissible
        && Option.is_some a.linearization = Option.is_some b.linearization
        && a.checked_by = b.checked_by && a.converged = b.converged
        && X.R.ok a = X.R.ok b
        && List.for_all2
             (fun (x : _ Sim.Trace.operation) (y : _ Sim.Trace.operation) ->
               x.proc = y.proc
               && Rat.equal (Rat.mul_int x.inv_time k) y.inv_time
               && Rat.equal (Rat.mul_int x.resp_time k) y.resp_time)
             a.operations b.operations
        && List.for_all2
             (fun (o, x) (o', y) -> o = o' && same_times k x y)
             a.by_op b.by_op
        &&
        match (Core.Metrics.Hist.summary a.hist, Core.Metrics.Hist.summary b.hist) with
        | Some x, Some y -> same_times k x y
        | None, None -> true
        | _ -> false
end

let prop_scale_invariance =
  QCheck.Test.make ~name:"scaling every time by k scales the run by k" ~count:60
    QCheck.(pair (int_range 1 5000) (int_range 2 7))
    (fun (seed, k) ->
      let s = Scenario.gen ~seed in
      QCheck.assume
        (match s.workload with Scenario.Closed_loop _ -> false | _ -> true);
      let pt = Option.get (Scenario.Packed_type.find s.dt) in
      let (module X) = Scenario.Packed_type.runner pt in
      let module S = Scaled (X) in
      S.invariant k s)

let () =
  Alcotest.run "model_net"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "derived quantities" `Quick test_derived_quantities;
          Alcotest.test_case "delay_valid" `Quick test_delay_valid;
          Alcotest.test_case "skew_valid" `Quick test_skew_valid;
          QCheck_alcotest.to_alcotest prop_skew_is_pairwise;
          Alcotest.test_case "skew_valid allocates nothing" `Quick
            test_skew_valid_allocates_nothing;
        ] );
      ( "net",
        [
          Alcotest.test_case "constant and matrix" `Quick test_constant_and_matrix;
          Alcotest.test_case "matrix_valid" `Quick test_matrix_valid;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
        ] );
      ( "quantum",
        [
          Alcotest.test_case "load model" `Quick test_quantum_load_model;
          Alcotest.test_case "generated scenario" `Quick
            test_quantum_generated_scenario;
          Alcotest.test_case "odd denominators" `Quick
            test_quantum_odd_denominators;
          Alcotest.test_case "ablation timing" `Quick test_quantum_ablation_timing;
          Alcotest.test_case "limits refused by name" `Quick test_quantum_limits;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_in_range; prop_scale_invariance ] );
    ]
