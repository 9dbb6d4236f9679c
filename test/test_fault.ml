(* Fault-injection tests: seed determinism of a plan, a pinned digest
   of one fault schedule, the injector's allocation, the trace's O(1)
   fault counters, crash-stop suppression, and — for both retained and
   retention-free runs — the admissibility monitor naming the exact
   (src, dst, seq, delay) of an injected out-of-envelope spike. *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1)

module Reg = Spec.Register
module Algo = Core.Wtlw.Make (Reg)

(* A small fixed schedule over Algorithm 1; delays come from a uniform
   matrix so injected spikes have an exactly predictable magnitude. *)
let four_ops =
  [ (0, Reg.Write 1); (1, Reg.Read); (2, Reg.Write 2); (1, Reg.Read) ]

(* Algorithm 1's handlers on an engine that injects [faults], as
   [Core.Runtime] builds a faulted cluster. *)
let faulted_engine ?retain_events ~faults () =
  Sim.Engine.create ?retain_events ~faults ~model
    ~offsets:(Array.make 3 Rat.zero)
    ~delay:(Sim.Net.matrix (Sim.Net.uniform_matrix ~n:3 (rat 8 1)))
    ~handlers:
      (Algo.protocol
         ~timing:(Core.Wtlw.default_timing model ~x:(rat 2 1))
         (Algo.fresh_states ~n:3))
    ()

let run_cluster ?(retain_events = true) ?(schedule = four_ops) ~faults () =
  let engine = faulted_engine ~retain_events ~faults () in
  List.iteri
    (fun i (proc, inv) ->
      Sim.Engine.schedule_invoke engine ~at:(rat (i * 25) 1) ~proc inv)
    schedule;
  Sim.Engine.run engine;
  Sim.Engine.trace engine

let fingerprint ev =
  match ev with
  | Sim.Trace.Invoke { time; proc; _ } ->
      Printf.sprintf "I p%d @%s" proc (Rat.to_string time)
  | Respond { time; proc; _ } ->
      Printf.sprintf "R p%d @%s" proc (Rat.to_string time)
  | Send { time; src; dst; seq; delay; _ } ->
      Printf.sprintf "S %d->%d #%d @%s +%s" src dst seq (Rat.to_string time)
        (Rat.to_string delay)
  | Deliver { time; src; dst; _ } ->
      Printf.sprintf "D %d->%d @%s" src dst (Rat.to_string time)
  | Timer_set { time; proc; id; _ } ->
      Printf.sprintf "Ts p%d #%d @%s" proc id (Rat.to_string time)
  | Timer_fire { time; proc; id } ->
      Printf.sprintf "Tf p%d #%d @%s" proc id (Rat.to_string time)
  | Timer_cancel { time; proc; id } ->
      Printf.sprintf "Tc p%d #%d @%s" proc id (Rat.to_string time)
  | Fault { time; fault } ->
      Format.asprintf "F @%s %a" (Rat.to_string time) Sim.Fault.pp_kind fault

let storm seed =
  Sim.Fault.plan ~seed
    [
      Sim.Fault.drops 0.3;
      Sim.Fault.duplicates 0.3;
      Sim.Fault.spikes ~margin:(rat 5 1) 0.2;
    ]

let test_plan_determinism () =
  let events () =
    List.map fingerprint (Sim.Trace.events (run_cluster ~faults:(storm 11) ()))
  in
  let first = events () and second = events () in
  Alcotest.(check bool) "trace nonempty" true (first <> []);
  Alcotest.(check (list string)) "same seed, identical trace" first second

let test_seed_changes_faults () =
  let counts seed =
    Sim.Trace.fault_counts (run_cluster ~faults:(storm seed) ())
  in
  Alcotest.(check bool) "some fault injected" true
    (Sim.Trace.total_faults (counts 11) > 0);
  (* Not a tautology for these seeds; a different seed rolls a
     different fault stream. *)
  Alcotest.(check bool) "different seed, different stream" true
    (counts 11 <> counts 12)

(* A plan that exercises every branch of the injector's decision: drop,
   duplicate, a spike above and one below (clamped at 0 under the
   uniform delay 8), a spike restricted to two edges, and a [p = 0]
   spec, which must draw nothing.  Over [long_schedule] drops and
   spikes fire together, and so do spikes and duplicates; the replay
   below shows it. *)
let schedule_seed = 5

let schedule_plan =
  Sim.Fault.plan ~seed:schedule_seed
    [
      Sim.Fault.drops 0.2;
      Sim.Fault.duplicates 0.25;
      Sim.Fault.spikes ~margin:(rat 5 1) 0.2;
      Sim.Fault.duplicates 0.0;
      Sim.Fault.spikes ~below:true ~margin:(rat 10 1) 0.2;
      Sim.Fault.spikes ~edges:(Sim.Fault.Edges [ (0, 1); (2, 0) ])
        ~margin:(rat 3 1) 0.5;
    ]

let long_schedule =
  List.init 24 (fun i ->
      (i mod 3, if i mod 2 = 0 then Reg.Write i else Reg.Read))

(* The fault schedule of [schedule_plan] over [long_schedule], pinned
   by the digest of its retained trace.  Any change to the RNG draws,
   their order, the spike rule or the order in which faults are
   recorded moves it. *)
let schedule_digest = "a663c2a145d866ccf0fbbd7b21ccdf43"

(* An independent model of the decision, replayed over the trace's
   transmissions with the stdlib's [Random.State.float]: every
   probabilistic spec rolls on every transmission, in plan order, and
   the first spike that fires wins.  Returns the predicted (dropped,
   duplicated, spiked, drop-and-spike, spike-and-duplicate) counts. *)
let replay_schedule trace =
  let rng = Random.State.make [| schedule_seed; 0x5eed |] in
  let roll p = p > 0. && Random.State.float rng 1.0 < p in
  let on_edge edges key =
    match edges with Sim.Fault.All -> true | Edges l -> List.mem key l
  in
  let transmissions =
    List.fold_left
      (fun acc ev ->
        match (ev, acc) with
        | Sim.Trace.Send { src; dst; seq; _ }, last :: _
          when last = (src, dst, seq) ->
            acc (* the second copy of a duplicated transmission *)
        | Sim.Trace.Send { src; dst; seq; _ }, _ -> (src, dst, seq) :: acc
        | _ -> acc)
      [] (Sim.Trace.events trace)
    |> List.rev
  in
  let counts = Array.make 5 0 in
  let bump i = counts.(i) <- counts.(i) + 1 in
  List.iter
    (fun (src, dst, _) ->
      let drop = ref false and dup = ref false and spike = ref false in
      List.iter
        (fun spec ->
          match spec with
          | Sim.Fault.Drop { p; edges } ->
              if roll p && on_edge edges (src, dst) then drop := true
          | Duplicate { p; edges } ->
              if roll p && on_edge edges (src, dst) then dup := true
          | Spike { p; edges; _ } ->
              if roll p && on_edge edges (src, dst) then spike := true
          | Crash _ | Skew _ -> ())
        schedule_plan.specs;
      if !drop then bump 0;
      if !dup && not !drop then bump 1;
      if !spike && not !drop then bump 2;
      if !drop && !spike then bump 3;
      if !spike && !dup && not !drop then bump 4)
    transmissions;
  counts

let test_schedule_pinned () =
  let trace = run_cluster ~schedule:long_schedule ~faults:schedule_plan () in
  let lines = List.map fingerprint (Sim.Trace.events trace) in
  let counts = Sim.Trace.fault_counts trace in
  let predicted = replay_schedule trace in
  Alcotest.(check (list int))
    "replay predicts the recorded faults"
    [ counts.dropped; counts.duplicated; counts.spiked ]
    [ predicted.(0); predicted.(1); predicted.(2) ];
  Alcotest.(check bool) "drop and spike fire together" true (predicted.(3) > 0);
  Alcotest.(check bool) "spike and duplicate fire together" true
    (predicted.(4) > 0);
  let spiked_to delay =
    List.exists
      (function
        | Sim.Trace.Fault { fault = Spiked { delay = d; _ }; _ } ->
            Rat.to_string d = delay
        | _ -> false)
      (Sim.Trace.events trace)
  in
  Alcotest.(check bool) "spike above (8 + 5)" true (spiked_to "13");
  Alcotest.(check bool) "spike below, clamped at 0" true (spiked_to "0");
  Alcotest.(check bool) "edge-restricted spike (8 + 3)" true (spiked_to "11");
  Alcotest.(check string) "pinned schedule" schedule_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* The injector's decision allocates nothing: no boxed float per roll,
   no closure over the plan, no result list.  When every roll misses,
   10 000 decisions allocate 0 minor words; when every spec fires
   (integer delays, which [Rat] keeps unboxed), still 0 — the engine
   then builds only the [Fault.kind] record it traces. *)
let decision_words plan =
  let inj = Sim.Fault.instantiate plan in
  let delay = rat 8 1 in
  let fates = ref 0 in
  let before = Gc.minor_words () in
  for seq = 0 to 9_999 do
    fates := !fates lor Sim.Fault.decide inj ~src:(seq mod 3) ~dst:1 ~delay
  done;
  (Gc.minor_words () -. before, !fates)

let test_decision_allocates_nothing () =
  let never = 1e-12 (* rolled, never fires over 10 000 draws *) in
  let words, fates =
    decision_words
      (Sim.Fault.plan ~seed:9
         [
           Sim.Fault.drops never;
           Sim.Fault.duplicates ~edges:(Sim.Fault.Edges [ (0, 1) ]) never;
           Sim.Fault.spikes ~margin:(rat 5 1) never;
         ])
  in
  Alcotest.(check int) "every roll missed" 0 fates;
  Alcotest.(check (float 0.)) "misses allocate nothing" 0. words;
  let words, fates =
    decision_words
      (Sim.Fault.plan
         [
           Sim.Fault.drops 1.0;
           Sim.Fault.duplicates 1.0;
           Sim.Fault.spikes ~below:true ~margin:(rat 3 1) 1.0;
         ])
  in
  Alcotest.(check int) "every fate fired"
    Sim.Fault.(dropped lor duplicated lor spiked)
    fates;
  Alcotest.(check (float 0.)) "hits allocate nothing" 0. words

(* The same through the engine's send path: a run whose rolls all miss
   allocates exactly what a fault-free run does, plus the injector
   built at creation.  A closure or list per transmission in
   [Engine.send_message] shows up here. *)
let test_send_path_allocates_nothing () =
  let misses = Sim.Fault.plan [ Sim.Fault.drops 1e-12 ] in
  let run_words faults =
    let before = Gc.minor_words () in
    ignore
      (Sys.opaque_identity (run_cluster ~schedule:long_schedule ~faults ()));
    Gc.minor_words () -. before
  in
  let injector_words =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Some (Sim.Fault.instantiate misses)));
    Gc.minor_words () -. before
  in
  let quiet = run_words Sim.Fault.none in
  let rolled = run_words misses in
  Alcotest.(check int) "no fault fired" 0
    (Sim.Trace.total_faults
       (Sim.Trace.fault_counts
          (run_cluster ~schedule:long_schedule ~faults:misses ())));
  Alcotest.(check (float 0.))
    "only the injector itself" (quiet +. injector_words) rolled

let test_drop_counters () =
  let trace = run_cluster ~faults:(Sim.Fault.plan [ Sim.Fault.drops 1.0 ]) () in
  let counts = Sim.Trace.fault_counts trace in
  Alcotest.(check bool) "messages were sent" true
    (Sim.Trace.send_count trace > 0);
  Alcotest.(check int) "nothing delivered" 0 (Sim.Trace.deliver_count trace);
  Alcotest.(check int) "every send counted dropped"
    (Sim.Trace.send_count trace)
    counts.dropped

let test_duplicate_counters () =
  let trace =
    run_cluster ~faults:(Sim.Fault.plan [ Sim.Fault.duplicates 1.0 ]) ()
  in
  let counts = Sim.Trace.fault_counts trace in
  Alcotest.(check bool) "duplications recorded" true (counts.duplicated > 0);
  (* Each transmission records one Send per copy, and each copy is
     delivered. *)
  Alcotest.(check int) "two sends per transmission"
    (2 * counts.duplicated)
    (Sim.Trace.send_count trace);
  Alcotest.(check int) "every copy delivered"
    (Sim.Trace.send_count trace)
    (Sim.Trace.deliver_count trace)

let test_crash_suppression () =
  let faults =
    Sim.Fault.plan [ Sim.Fault.crash ~proc:1 ~at:(rat 1 1) ]
  in
  let trace = run_cluster ~faults () in
  let counts = Sim.Trace.fault_counts trace in
  Alcotest.(check int) "crash logged exactly once" 1 counts.crashed;
  (* p1's operations were invoked after the crash: recorded as pending
     forever, never answered. *)
  Alcotest.(check bool) "crashed process leaves pending ops" true
    (List.exists (fun (proc, _) -> proc = 1) (Sim.Trace.pending_invocations trace))

let test_skew_escapes_validation () =
  let offset = rat 7 1 (* far beyond eps = 1 *) in
  let faults = Sim.Fault.plan [ Sim.Fault.skew ~proc:0 ~offset ] in
  let effective = Sim.Engine.effective_offsets (faulted_engine ~faults ()) in
  Alcotest.(check string) "offset applied" "7" (Rat.to_string effective.(0));
  Alcotest.(check bool) "beyond the model's skew bound" false
    (Sim.Model.skew_valid model effective)

(* Satellite: an injected out-of-envelope delay must be reported by the
   monitor with the exact offending transmission — src, dst, the
   engine's FIFO sequence number and the faulted delay — whether or not
   the run retains events. *)
let spike_plan =
  Sim.Fault.plan ~seed:3
    [
      Sim.Fault.spikes
        ~edges:(Sim.Fault.Edges [ (0, 1) ])
        ~margin:(rat 5 1) (* > u = 4: guaranteed above the envelope *)
        1.0;
    ]

let violation_with ~retain_events =
  let trace = run_cluster ~retain_events ~faults:spike_plan () in
  match Sim.Trace.first_inadmissible trace with
  | None -> Alcotest.fail "monitor saw no violation"
  | Some v -> v

let check_violation label (v : Sim.Trace.violation) =
  Alcotest.(check int) (label ^ ": src") 0 v.src;
  Alcotest.(check int) (label ^ ": dst") 1 v.dst;
  Alcotest.(check int) (label ^ ": first transmission on the edge") 0 v.seq;
  (* uniform delay 8 + margin 5 *)
  Alcotest.(check string) (label ^ ": spiked delay") "13" (Rat.to_string v.delay)

let test_monitor_names_spike_retained () =
  check_violation "retained" (violation_with ~retain_events:true)

let test_monitor_names_spike_streaming () =
  let retained = violation_with ~retain_events:true in
  let streaming = violation_with ~retain_events:false in
  check_violation "streaming" streaming;
  Alcotest.(check bool) "identical verdict with retention off" true
    (retained = streaming)

let () =
  Alcotest.run "fault"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same trace" `Quick
            test_plan_determinism;
          Alcotest.test_case "seed changes the stream" `Quick
            test_seed_changes_faults;
          Alcotest.test_case "pinned schedule" `Quick test_schedule_pinned;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "decision allocates nothing" `Quick
            test_decision_allocates_nothing;
          Alcotest.test_case "send path allocates nothing per roll" `Quick
            test_send_path_allocates_nothing;
        ] );
      ( "counters",
        [
          Alcotest.test_case "drop everything" `Quick test_drop_counters;
          Alcotest.test_case "duplicate everything" `Quick
            test_duplicate_counters;
        ] );
      ( "processes",
        [
          Alcotest.test_case "crash-stop suppression" `Quick
            test_crash_suppression;
          Alcotest.test_case "skew escapes validation" `Quick
            test_skew_escapes_validation;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "names the spiked transmission (retained)" `Quick
            test_monitor_names_spike_retained;
          Alcotest.test_case "names the spiked transmission (streaming)" `Quick
            test_monitor_names_spike_streaming;
        ] );
    ]
