(* Tests for the deterministic perf harness: measurement plumbing, the
   datapoint codec and regression gate, and the allocation budget of
   the simulator's hot path. *)

let dp ?(commit = "c0") ?(bench = "b") ?(events = 1000) ?(minor = 10000.)
    ?(promoted = 500.) () =
  {
    Perf.History.commit;
    bench;
    events;
    minor_words = minor;
    promoted_words = promoted;
    major_words = 600.;
    minor_collections = 3;
    major_collections = 1;
  }

let test_measure_smoke () =
  let x, m = Perf.Measure.measure (fun () -> List.init 10_000 Fun.id) in
  Alcotest.(check int) "result passes through" 10_000 (List.length x);
  Alcotest.(check bool) "allocation observed" true (m.minor_words > 0.);
  Alcotest.(check bool) "wall time observed" true (m.wall_ns > 0)

let test_monotonic_clock () =
  let t0 = Perf.Measure.monotonic_ns () in
  let t1 = Perf.Measure.monotonic_ns () in
  Alcotest.(check bool) "never goes backwards" true (t1 >= t0)

(* A commit with a double quote and a backslash comes back unchanged,
   and its line is JSON: the line was once written unescaped. *)
let test_line_roundtrip () =
  List.iter
    (fun commit ->
      let d = dp ~commit ~bench:"engine-queue-8k" ~events:141519 () in
      let line = Perf.History.to_line d in
      Alcotest.(check bool) (commit ^ ": line is JSON") true
        (Result.is_ok (Core.Json.parse line));
      Alcotest.(check bool) (commit ^ ": roundtrip is identity") true
        (Perf.History.of_line line = Some d);
      (* Extra (nondeterministic, display-only) fields are ignored. *)
      let extended =
        Perf.History.to_line d
          ~extra:[ ("wall_ns", Int 123456); ("instructions", Null) ]
      in
      Alcotest.(check bool) (commit ^ ": extra fields ignored") true
        (Perf.History.of_line extended = Some d))
    [ "abc123"; {|a"b\c|} ];
  Alcotest.(check bool) "garbage rejected" true
    (Perf.History.of_line "not json" = None)

let test_upsert_idempotent () =
  let file = Filename.temp_file "perf_history" ".jsonl" in
  Sys.remove file;
  let d1 = dp ~commit:"aaa" () and d2 = dp ~commit:"bbb" ~minor:11000. () in
  Perf.History.upsert ~file d1;
  Perf.History.upsert ~file d2;
  Alcotest.(check int) "two entries" 2
    (List.length (Perf.History.load ~file));
  let read () =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let before = read () in
  (* Re-recording the same datapoint must leave the file untouched —
     the property the byte-identical-rerun guarantee rests on. *)
  Perf.History.upsert ~file d2;
  Alcotest.(check string) "identical rerun is byte-identical" before (read ());
  (* Upserting a changed datapoint for an existing commit replaces in
     place rather than appending. *)
  Perf.History.upsert ~file (dp ~commit:"aaa" ~minor:99999. ());
  let points = Perf.History.load ~file in
  Alcotest.(check int) "still two entries" 2 (List.length points);
  Alcotest.(check (float 0.01)) "replaced in place" 99999.
    (List.nth points 0).minor_words;
  Sys.remove file

let test_pick_baseline () =
  let history = [ dp ~commit:"aaa" (); dp ~commit:"bbb" (); dp ~commit:"head" () ] in
  let get = function
    | Ok (Some d) -> d.Perf.History.commit
    | Ok None -> "<none>"
    | Error _ -> "<error>"
  in
  Alcotest.(check string) "most recent non-head" "bbb"
    (get (Perf.History.pick_baseline ~head:"head" history));
  Alcotest.(check string) "explicit ref by prefix" "aa"
    (String.sub (get (Perf.History.pick_baseline ~ref_prefix:"aa" ~head:"head" history)) 0 2);
  Alcotest.(check string) "unknown ref errors" "<error>"
    (get (Perf.History.pick_baseline ~ref_prefix:"zzz" ~head:"head" history));
  Alcotest.(check string) "only own commit falls back to it" "head"
    (get (Perf.History.pick_baseline ~head:"head" [ dp ~commit:"head" () ]));
  Alcotest.(check string) "empty history is none" "<none>"
    (get (Perf.History.pick_baseline ~head:"head" []))

let test_gate () =
  let baseline = dp () in
  let gate ?recorded d =
    Perf.History.gate ~recorded ~baseline ~current:d
  in
  let pass ?recorded d = Result.is_ok (gate ?recorded d) in
  Alcotest.(check bool) "identical rerun passes" true (pass (dp ()));
  Alcotest.(check bool) "within tolerance passes" true
    (pass (dp ~minor:10100. ()));
  Alcotest.(check bool) "small improvement passes" true
    (pass (dp ~minor:9900. ()));
  (* Two-sided: a gain beyond the tolerance fails by name until the
     history holds a datapoint for it. *)
  (match gate (dp ~minor:8000. ()) with
  | Ok _ -> Alcotest.fail "unrecorded improvement passed"
  | Error msg ->
      Alcotest.(check bool) "named unrecorded improvement" true
        (String.length msg >= 22
        && String.sub msg 0 22 = "UNRECORDED IMPROVEMENT"));
  Alcotest.(check bool) "recorded improvement passes" true
    (pass ~recorded:(dp ~commit:"head" ~minor:8000. ()) (dp ~minor:8000. ()));
  Alcotest.(check bool) "a different recorded number does not count" false
    (pass ~recorded:(dp ~commit:"head" ~minor:9000. ()) (dp ~minor:8000. ()));
  Alcotest.(check bool) "improved promoted words fails unrecorded" false
    (pass (dp ~promoted:400. ()));
  (* A synthetically inflated current datapoint must fail the gate. *)
  Alcotest.(check bool) "inflated minor words fails" false
    (pass (dp ~minor:12000. ()));
  Alcotest.(check bool) "inflated promoted words fails" false
    (pass (dp ~promoted:900. ()));
  (* Per-event normalization: doubling the workload and the allocation
     together is not a regression. *)
  Alcotest.(check bool) "workload resize not a regression" true
    (pass (dp ~events:2000 ~minor:20000. ~promoted:1000. ()))

(* A section measured at every phase of the minor heap gives one
   datapoint: the mean of the phase-dependent counters, and the first
   (unshifted) point's minor words, so the minor-words gate is as it
   was. *)
let test_average () =
  let points =
    [
      dp ~promoted:500. ();
      dp ~minor:10002. ~promoted:600. ();
      dp ~minor:9998. ~promoted:701. ();
    ]
  in
  (match Perf.History.average points with
  | Error msg -> Alcotest.fail msg
  | Ok d ->
      Alcotest.(check (float 0.)) "promoted words are the rounded mean" 600.
        d.promoted_words;
      Alcotest.(check (float 0.)) "minor words are the first point's" 10000.
        d.minor_words;
      Alcotest.(check int) "events kept" 1000 d.events);
  Alcotest.(check bool) "points that disagree on events are refused" true
    (Result.is_error (Perf.History.average [ dp (); dp ~events:999 () ]));
  Alcotest.(check bool) "no point is refused" true
    (Result.is_error (Perf.History.average []))

(* Starting a run later in the minor heap moves only where it fills:
   the dead blocks that shift it are not charged to the run. *)
let test_phase_shift_not_charged () =
  let section = Option.get (Perf.Suite.find "codec-1k") in
  let events0, m0 = Perf.Suite.measure section in
  let events1, m1 =
    Perf.Suite.measure ~phase:(Perf.Suite.phases / 2) section
  in
  Alcotest.(check int) "same events" events0 events1;
  Alcotest.(check bool) "same minor words, to in-process drift" true
    (Float.abs (m1.minor_words -. m0.minor_words) <= 0.01 *. m0.minor_words)

(* The allocation budget of the hot path, in minor words per dispatched
   event on a 10k-operation closed-loop queue workload.  Replicas that
   share each step through one replay log land this around 5; before
   that, flat event slots (no per-event variant block), a timer bitmap
   instead of a cancelled-id table and a mutable To_Execute heap
   instead of a persistent map had it around 7; building trace events only when
   something keeps them and pushing fault-free sends straight to the
   queue had it around 15, the flattened event queue + cached ctx +
   unboxed Rat around 27, and the entry-record heap with per-event ctx
   allocation around 48.  The budget leaves headroom for noise but
   fails loudly if per-event allocation creeps back up. *)
let test_allocation_budget () =
  let budget = 12.0 in
  let events, m =
    Perf.Measure.measure (fun () -> Perf.Suite.queue_events ~per_proc:2500 ())
  in
  Alcotest.(check bool) "workload ran" true (events > 100_000);
  let per_event = m.minor_words /. float_of_int events in
  if per_event > budget then
    Alcotest.failf
      "allocation budget exceeded: %.1f minor words/event (budget %.1f)"
      per_event budget

let () =
  Alcotest.run "perf"
    [
      ( "measure",
        [
          Alcotest.test_case "measure smoke" `Quick test_measure_smoke;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
        ] );
      ( "history",
        [
          Alcotest.test_case "line roundtrip" `Quick test_line_roundtrip;
          Alcotest.test_case "upsert idempotent" `Quick test_upsert_idempotent;
          Alcotest.test_case "pick baseline" `Quick test_pick_baseline;
          Alcotest.test_case "gate" `Quick test_gate;
          Alcotest.test_case "phase average" `Quick test_average;
          Alcotest.test_case "phase shift not charged" `Quick
            test_phase_shift_not_charged;
        ] );
      ( "budget",
        [
          Alcotest.test_case "allocation per event" `Quick
            test_allocation_budget;
        ] );
    ]
