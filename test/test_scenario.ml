(* Scenario DSL tests: the canonical codec round-trips, generation and
   shrinking are seed-deterministic, the shrinker minimizes the seeded
   ablation failure to (at most) the hand-written counterexample and
   reaches a fixpoint, and the shrunk matrix witnesses bound
   tightness. *)

let counterexample = Scenario.Builtin.ablation_counterexample

let scenario_eq =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Scenario.to_string s))
    Scenario.equal

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_round_trip () =
  let check_one (s : Scenario.t) =
    match Scenario.of_string (Scenario.to_string s) with
    | Error msg -> Alcotest.failf "%s does not parse back: %s" s.name msg
    | Ok s' ->
        Alcotest.check scenario_eq (s.name ^ " round-trips") s s';
        (* Canonical: equal scenarios render byte-identically. *)
        Alcotest.(check string)
          (s.name ^ " renders canonically")
          (Scenario.to_string s) (Scenario.to_string s')
  in
  List.iter check_one Scenario.Builtin.all;
  List.iter check_one (Scenario.Generate.batch ~seed:1 ~count:15);
  (* Sweep cells and fault-matrix legs are scenarios too. *)
  let grid = Sweep.default_grid in
  List.iter
    (fun cell -> check_one (Scenario.of_sweep_cell grid cell))
    (Sweep.cells grid);
  let model = List.hd Sweep.default_points in
  let register = Option.get (Scenario.Packed_type.find "register") in
  List.iter
    (fun case ->
      List.iter
        (fun recovered ->
          check_one
            (Scenario.Robustness.scenario ~model ~x:(Rat.of_int 4) ~seed:7
               ~recovered register case))
        [ false; true ])
    (Scenario.Robustness.default_cases ~seed:7 model)

let test_file_round_trip () =
  let path = Filename.temp_file "scenario" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario.save path counterexample;
      match Scenario.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok s ->
          Alcotest.check scenario_eq "file round-trip" counterexample s)

(* First-occurrence substring replacement; fails the test if [sub] is
   absent, so the corruption below cannot silently no-op. *)
let replace ~sub ~by s =
  let len = String.length sub and n = String.length s in
  let rec find i =
    if i + len > n then None
    else if String.equal (String.sub s i len) sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "substring %S not found" sub
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + len) (n - i - len)

let test_parse_errors () =
  let reject label s =
    match Scenario.of_string s with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" label
    | Error _ -> ()
  in
  reject "garbage" "(not a scenario)";
  reject "truncated" "(scenario (name x)";
  (* n=4 with a 3-entry offsets row must be rejected *)
  reject "bad offsets"
    (replace ~sub:"(offsets 0 3 0 0)" ~by:"(offsets 0 3 0)"
       (Scenario.to_string counterexample))

(* ------------------------------------------------------------------ *)
(* Pinned decoding *)

(* A small valid scenario, edited below one field at a time. *)
let base_text =
  "(scenario (name base) (type queue) (model 3 10 4 1) (offsets 0 0 0) \
   (delays random) (faults 0) (reliable false) (checker monitor) \
   (algorithm (wtlw 3 paper)) (workload (closed-loop 2 1/2)) (seed 1) \
   (max-events none) (max-check-nodes none) (expect certify) \
   (predicate true))"

let base_fields =
  [ "(name base)"; "(type queue)"; "(model 3 10 4 1)"; "(offsets 0 0 0)";
    "(delays random)"; "(faults 0)"; "(reliable false)"; "(checker monitor)";
    "(algorithm (wtlw 3 paper))"; "(workload (closed-loop 2 1/2))"; "(seed 1)";
    "(max-events none)"; "(max-check-nodes none)"; "(expect certify)";
    "(predicate true)" ]

let edit a b = replace ~sub:a ~by:b base_text

let decode_inputs =
  [
    ("empty input", "");
    ("unterminated list", "(scenario (name x)");
    ("unterminated string", edit "(name base)" "(name \"ba");
    ("bad escape", edit "(name base)" "(name \"a\\qb\")");
    ("trailing input", base_text ^ " x");
    ("unexpected ')'", ")");
    ("not a scenario", "(not a scenario)");
    ("atom", "scenario");
    ("empty list", "()");
    ("list head", "((scenario))");
  ]
  @ List.map
      (fun f ->
        (* the last field has a space before it, not after *)
        if f = "(predicate true)" then ("missing " ^ f, edit (" " ^ f) "")
        else ("missing " ^ f, edit (f ^ " ") ""))
      base_fields
  @ [
      ("name is a list", edit "(name base)" "(name (base))");
      ("name has two values", edit "(name base)" "(name a b)");
      ("name has no value", edit "(name base)" "(name)");
      ("bad int", edit "(seed 1)" "(seed x)");
      ("float seed", edit "(seed 1)" "(seed 1.5)");
      ("overlong int", edit "(seed 1)" "(seed 99999999999999999999)");
      ("list seed", edit "(seed 1)" "(seed (1))");
      ("model shape", edit "(model 3 10 4 1)" "(model 3 10 4)");
      ("model bad int", edit "(model 3 10 4 1)" "(model three 10 4 1)");
      ("model bad rational", edit "(model 3 10 4 1)" "(model 3 x 4 1)");
      ("model zero denominator", edit "(model 3 10 4 1)" "(model 3 1/0 4 1)");
      ("model double slash", edit "(model 3 10 4 1)" "(model 3 1/2/3 4 1)");
      ("model u > d", edit "(model 3 10 4 1)" "(model 3 10 11 1)");
      ("model n < 2", edit "(model 3 10 4 1)" "(model 1 10 4 1)");
      ("offsets length", edit "(offsets 0 0 0)" "(offsets 0 0)");
      ("offsets last error wins", edit "(offsets 0 0 0)" "(offsets x 0 y)");
      ("offsets list", edit "(offsets 0 0 0)" "(offsets (0) 0 0)");
      ("delays atom", edit "(delays random)" "(delays foo)");
      ("delays list", edit "(delays random)" "(delays (random))");
      ("matrix shape", edit "(delays random)" "(delays (matrix (10 10 10) (10 10 10)))");
      ("matrix ragged", edit "(delays random)" "(delays (matrix (10 10 10) (10 10) (10 10 10)))");
      ("matrix last error wins", edit "(delays random)" "(delays (matrix (10 x 10) (10 10 y) (z 10 10)))");
      ("matrix row atom", edit "(delays random)" "(delays (matrix 10 (1 2 3) (x 2 3)))");
      ("faults empty", edit "(faults 0)" "(faults)");
      ("faults seed", edit "(faults 0)" "(faults x)");
      ("fault bad float", edit "(faults 0)" "(faults 0 (drop x all))");
      ("fault bad edges", edit "(faults 0)" "(faults 0 (drop 0.1 none))");
      ("fault bad edge", edit "(faults 0)" "(faults 0 (duplicate 0.1 (edges (0 1 2))))");
      ("fault edge int", edit "(faults 0)" "(faults 0 (drop 0.1 (edges (0 1) (a b))))");
      ("fault spike direction", edit "(faults 0)" "(faults 0 (spike 0.5 1 sideways all))");
      ("fault spike margin", edit "(faults 0)" "(faults 0 (spike 0.5 x above all))");
      ("fault unknown", edit "(faults 0)" "(faults 0 (explode))");
      ("fault crash", edit "(faults 0)" "(faults 0 (crash p0 5))");
      ("fault skew", edit "(faults 0)" "(faults 0 (skew 0 x))");
      ("faults last error wins", edit "(faults 0)" "(faults 0 (drop x all) (drop 0.1 (edges (0 y))))");
      ("bad bool", edit "(reliable false)" "(reliable yes)");
      ("bad checker", edit "(checker monitor)" "(checker fast)");
      ("checker list", edit "(checker monitor)" "(checker (monitor))");
      ("algorithm atom", edit "(algorithm (wtlw 3 paper))" "(algorithm wtlw)");
      ("bad knob", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw 3 weird))");
      ("knob rational", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw 3 (eager-accessor x)))");
      ("algorithm rational", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw x paper))");
      ("bad workload", edit "(workload (closed-loop 2 1/2))" "(workload (open-loop))");
      ("closed-loop int", edit "(workload (closed-loop 2 1/2))" "(workload (closed-loop two 1/2))");
      ("bad entry", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (0 1)))");
      ("bad op reference", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (0 1 (sample (enqueue) 0))))");
      ("entries last error wins", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (x 1 (sample enqueue 0)) (0 y (tagged enqueue 1))))");
      ("generated bad float", edit "(workload (closed-loop 2 1/2))" "(workload (generated (poisson 1/4) x 8 16))");
      ("generated bad arrival", edit "(workload (closed-loop 2 1/2))" "(workload (generated (uniform 1) 0.9 8 16))");
      ("generated bursty size", edit "(workload (closed-loop 2 1/2))" "(workload (generated (bursty 1/4 x) 0.9 8 16))");
      ("bad expectation", edit "(expect certify)" "(expect maybe)");
      ("diagnostic list", edit "(expect certify)" "(expect (diagnostic (x)))");
      ("max-events", edit "(max-events none)" "(max-events many)");
      ("max-check-nodes", edit "(max-check-nodes none)" "(max-check-nodes (none))");
      ("bad predicate", edit "(predicate true)" "(predicate maybe)");
      ("predicate arity", edit "(predicate true)" "(predicate (and true))");
      ("bad state atom", edit "(predicate true)" "(predicate (always (op-is)))");
      ("bad final atom", edit "(predicate true)" "(predicate (finally done))");
      ("nested predicate", edit "(predicate true)" "(predicate (or (not (eventually (completed-ge x))) true))");
      (* shapes: too few and too many elements, and lists where atoms belong *)
      ("drop short", edit "(faults 0)" "(faults 0 (drop x))");
      ("drop long", edit "(faults 0)" "(faults 0 (drop x all all))");
      ("spike short", edit "(faults 0)" "(faults 0 (spike 0.5 x above))");
      ("crash long", edit "(faults 0)" "(faults 0 (crash x 1 2))");
      ("skew short", edit "(faults 0)" "(faults 0 (skew x))");
      ("edges with a list edge", edit "(faults 0)" "(faults 0 (drop 0.1 (edges (0 (1)))))");
      ("edges short", edit "(faults 0)" "(faults 0 (drop 0.1 (edges (0))))");
      ("edges head only", edit "(faults 0)" "(faults 0 (drop 0.1 (edges)))");
      ("all as a list", edit "(faults 0)" "(faults 0 (drop 0.1 (all)))");
      ("wtlw short", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw x))");
      ("wtlw long", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw x paper paper))");
      ("knob long", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw 3 (eager-accessor x 1)))");
      ("knob short", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw 3 (short-execute-wait)))");
      ("knob atom as list", edit "(algorithm (wtlw 3 paper))" "(algorithm (wtlw 3 (paper)))");
      ("tob as list", edit "(algorithm (wtlw 3 paper))" "(algorithm (tob))");
      ("matrix empty", edit "(delays random)" "(delays (matrix))");
      ("matrix atom head", edit "(delays random)" "(delays matrix)");
      ("closed-loop long", edit "(workload (closed-loop 2 1/2))" "(workload (closed-loop x 1/2 1))");
      ("closed-loop short", edit "(workload (closed-loop 2 1/2))" "(workload (closed-loop x))");
      ("generated long", edit "(workload (closed-loop 2 1/2))" "(workload (generated (poisson 1/4) x 8 16 1))");
      ("generated short", edit "(workload (closed-loop 2 1/2))" "(workload (generated (poisson x) 0.5 8))");
      ("poisson long", edit "(workload (closed-loop 2 1/2))" "(workload (generated (poisson x 1) 0.5 8 16))");
      ("diurnal short", edit "(workload (closed-loop 2 1/2))" "(workload (generated (diurnal x 1) 0.5 8 16))");
      ("entry long", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (x 1 (sample enqueue 0) 4)))");
      ("entry short", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (x 1)))");
      ("sample long", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (0 1 (sample enqueue x 1))))");
      ("sample short", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (0 1 (sample enqueue))))");
      ("tagged op list", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (0 1 (tagged (enqueue) x))))");
      ("tagged bad int", edit "(workload (closed-loop 2 1/2))" "(workload (explicit (0 1 (tagged enqueue x))))");
      ("explicit empty", edit "(workload (closed-loop 2 1/2))" "(workload (explicit))");
      ("explicit entry atom", edit "(workload (closed-loop 2 1/2))" "(workload (explicit x (0 1 (sample enqueue 0))))");
      ("not long", edit "(predicate true)" "(predicate (not (finally x) true))");
      ("or short", edit "(predicate true)" "(predicate (or (finally x)))");
      ("always long", edit "(predicate true)" "(predicate (always (completed-ge x) 1))");
      ("completed-ge long", edit "(predicate true)" "(predicate (always (completed-ge x 1)))");
      ("op-is list", edit "(predicate true)" "(predicate (always (op-is (enqueue))))");
      ("op-is long", edit "(predicate true)" "(predicate (always (op-is enqueue x)))");
      ("pending-le short", edit "(predicate true)" "(predicate (finally (pending-le)))");
      ("linearizable as list", edit "(predicate true)" "(predicate (finally (linearizable)))");
      ("true as list", edit "(predicate true)" "(predicate (true))");
      ("diagnostic long", edit "(expect certify)" "(expect (diagnostic x y))");
      ("diagnostic short", edit "(expect certify)" "(expect (diagnostic))");
      ("certify as list", edit "(expect certify)" "(expect (certify))");
      ("none as list", edit "(max-events none)" "(max-events (none))");
      ("quoted none", edit "(max-events none)" "(max-events \"none\")");
      ("bool as list", edit "(reliable false)" "(reliable (true))");
      ("model list value", edit "(model 3 10 4 1)" "(model 3 (10) 4 1)");
      ("model long", edit "(model 3 10 4 1)" "(model x 10 4 1 5)");
      ("offsets empty", edit "(offsets 0 0 0)" "(offsets)");
      ("faults seed list", edit "(faults 0)" "(faults (0) (drop x all))");
      ("field with list key", edit "(seed 1)" "((seed) 2) (seed 3)");
      ("empty field list", edit "(seed 1)" "() (seed 3)");
      ("quoted key with escape", edit "(seed 1)" "(\"se\\\"ed\" 2) (seed 3)");
      ("name quoted escapes", edit "(name base)" "(name \"a\\nb\\\\c\")");
      ("deep nesting", edit "(predicate true)" ("(predicate " ^ String.concat "" (List.init 200 (fun _ -> "(not ")) ^ "true" ^ String.make 200 ')' ^ ")"));
      ("float spellings", edit "(workload (closed-loop 2 1/2))" "(workload (generated (poisson 1/4) 0x1.8p-1 8 16))");
      ("int min", edit "(seed 1)" "(seed -4611686018427387904)");
      ("int max", edit "(seed 1)" "(seed 4611686018427387903)");
      ("int too big", edit "(seed 1)" "(seed 4611686018427387904)");
      ("nineteen digits", edit "(seed 1)" "(seed 1000000000000000000)");
      ("leading zeros", edit "(seed 1)" "(seed 007)");
      ("minus only", edit "(seed 1)" "(seed -)");
      ("rat negative denominator", edit "(offsets 0 0 0)" "(offsets 1/-2 -3/-6 0/5)");
      ("rat spaces", edit "(offsets 0 0 0)" "(offsets 1/ /2 0)");
      (* accepted spellings *)
      ("base", base_text);
      ("hex, underscores and plus", edit "(seed 1)" "(seed 0x1F)" |> replace ~sub:"(model 3 10 4 1)" ~by:"(model +3 1_0 0b100 0o1)");
      ("rational spellings", edit "(offsets 0 0 0)" "(offsets -0 2/4 0x10/-0x4)");
      ("quoted keys and atoms", edit "(seed 1)" "(\"seed\" \"7\")" |> replace ~sub:"(scenario" ~by:"(\"scenario\"" |> replace ~sub:"(delays random)" ~by:"(delays \"random\")");
      ("comments and whitespace", edit "(seed 1)" "; a comment\n\t(seed ; inner\n 3)  \r\n");
      ("first occurrence wins", edit "(seed 1)" "(seed 4) (seed 5) (unknown 1 2) junk");
      ("bad duplicate ignored", edit "(seed 1)" "(seed 4) (seed x)");
      ("every construct",
       "(scenario (name \"a b\\\"c\") (type queue) (model 3 10 4 1) (offsets 0 1/2 -1) \
        (delays (matrix (8 9 10) (10 10 10) (6 7 17/2))) \
        (faults 9 (drop 0.05 all) (duplicate 0.25 (edges (0 1) (2 0))) (spike 0.5 3/2 below (edges)) (spike 1 5 above all) (crash 1 40) (skew 2 -1/3)) \
        (reliable true) (checker wing-gong) (algorithm (wtlw 3 (short-execute-wait 1/2))) \
        (workload (explicit (0 1 (sample enqueue 0)) (2 3/2 (tagged dequeue 4)))) (seed -9) (max-events 100) (max-check-nodes 7) \
        (expect (diagnostic \"node budget\")) \
        (predicate (and (or (not (always (completed-ge 1))) (eventually (latency-le 7/2))) (and (always (op-is \"enq ueue\")) (and (eventually (resp-by 100)) (and (finally (pending-le 0)) (and (finally (messages-le 9)) (and (finally (faults-le 3)) (or (finally linearizable) (finally converged))))))))))");
      ("generated arrivals",
       edit "(workload (closed-loop 2 1/2))" "(workload (generated (diurnal 1/4 400 1/10) 1e-05 8 16))");
      ("bursty and knobs",
       edit "(workload (closed-loop 2 1/2))" "(workload (generated (bursty 1/4 3) 0.9 8 16))"
       |> replace ~sub:"(algorithm (wtlw 3 paper))" ~by:"(algorithm (wtlw 0 no-accessor-backdate))");
      ("algorithms", edit "(algorithm (wtlw 3 paper))" "(algorithm tob)");
    ]

(* Fields the decoder used to take without validation: each of these
   decoded, and ran.  A negative matrix delay ended in the engine's
   assertion; a process or edge outside the model injected nothing; a
   budget below 1 truncated the run at once or went unused. *)
let validation_inputs =
  [
    ("drop above one", edit "(faults 0)" "(faults 0 (drop 2.0 all))");
    ("drop nan", edit "(faults 0)" "(faults 0 (drop nan all))");
    ("duplicate negative", edit "(faults 0)" "(faults 0 (duplicate -0.1 all))");
    ("spike negative margin", edit "(faults 0)" "(faults 0 (spike 0.5 -3 above all))");
    ("spike zero margin", edit "(faults 0)" "(faults 0 (spike 0.5 0 below all))");
    ("spike bad probability and margin", edit "(faults 0)" "(faults 0 (spike 7 -3 above all))");
    ("crash process above n", edit "(faults 0)" "(faults 0 (crash 7 1))");
    ("crash process negative", edit "(faults 0)" "(faults 0 (crash -1 1))");
    ("skew process at n", edit "(faults 0)" "(faults 0 (skew 3 1))");
    ("drop edge above n", edit "(faults 0)" "(faults 0 (drop 0.1 (edges (0 9))))");
    ("spike edge negative", edit "(faults 0)" "(faults 0 (drop 0 all) (spike 0.5 1 above (edges (0 1) (-1 2))))");
    ("crash time negative", edit "(faults 0)" "(faults 0 (crash 1 -5))");
    ("matrix delay negative", edit "(delays random)" "(delays (matrix (8 -8 8) (8 8 10) (6 8 6)))");
    ("max-events negative", edit "(max-events none)" "(max-events -5)");
    ("max-events zero", edit "(max-events none)" "(max-events 0)");
    ("max-check-nodes negative", edit "(max-check-nodes none)" "(max-check-nodes -1)");
  ]

(* [Scenario.of_string] of each input above, as "ok <MD5 of the
   re-rendering>" or "error <message>", pinned before the s-expression
   tree was taken out of the codec. *)
let decode_expected =
  [
    ("empty input", "error unexpected end of input at offset 0");
    ("unterminated list", "error unterminated list at offset 18");
    ("unterminated string", "error unterminated string at offset 270");
    ("bad escape", "error bad escape at offset 19");
    ("trailing input", "error trailing input at offset 273");
    ("unexpected ')'", "error unexpected ')' at offset 0");
    ("not a scenario", "error not a (scenario ...) form");
    ("atom", "error not a (scenario ...) form");
    ("empty list", "error not a (scenario ...) form");
    ("list head", "error not a (scenario ...) form");
    ("missing (name base)", "error missing field name");
    ("missing (type queue)", "error missing field type");
    ("missing (model 3 10 4 1)", "error missing field model");
    ("missing (offsets 0 0 0)", "error missing field offsets");
    ("missing (delays random)", "error missing field delays");
    ("missing (faults 0)", "error missing field faults");
    ("missing (reliable false)", "error missing field reliable");
    ("missing (checker monitor)", "error missing field checker");
    ("missing (algorithm (wtlw 3 paper))", "error missing field algorithm");
    ("missing (workload (closed-loop 2 1/2))", "error missing field workload");
    ("missing (seed 1)", "error missing field seed");
    ("missing (max-events none)", "error missing field max-events");
    ("missing (max-check-nodes none)", "error missing field max-check-nodes");
    ("missing (expect certify)", "error missing field expect");
    ("missing (predicate true)", "error missing field predicate");
    ("name is a list", "error name: expected atom");
    ("name has two values", "error name: expected a single value");
    ("name has no value", "error name: expected a single value");
    ("bad int", "error seed: bad int: x");
    ("float seed", "error seed: bad int: 1.5");
    ("overlong int", "error seed: bad int: 99999999999999999999");
    ("list seed", "error seed: expected atom");
    ("model shape", "error model: expected (model N D U EPS)");
    ("model bad int", "error model: bad int: three");
    ("model bad rational", "error model: bad rational: x");
    ("model zero denominator", "error model: bad rational: 1/0");
    ("model double slash", "error model: bad rational: 1/2/3");
    ("model u > d", "error model: Model.make: u must be at most d");
    ("model n < 2", "error model: Model.make: need at least 2 processes");
    ("offsets length", "error offsets: offsets length must equal the model's n");
    ("offsets last error wins", "error offsets: bad rational: y");
    ("offsets list", "error offsets: expected atom");
    ("delays atom", "error delays: bad delays");
    ("delays list", "error delays: bad delays");
    ("matrix shape", "error delays: matrix must be n x n");
    ("matrix ragged", "error delays: matrix must be n x n");
    ("matrix last error wins", "error delays: bad rational: z");
    ("matrix row atom", "error delays: bad rational: x");
    ("faults empty", "error faults: expected (faults SEED SPEC...)");
    ("faults seed", "error faults: bad int: x");
    ("fault bad float", "error faults: bad float: x");
    ("fault bad edges", "error faults: bad edges");
    ("fault bad edge", "error faults: bad edge");
    ("fault edge int", "error faults: bad int: a");
    ("fault spike direction", "error faults: spike direction must be above|below");
    ("fault spike margin", "error faults: bad rational: x");
    ("fault unknown", "error faults: bad fault spec");
    ("fault crash", "error faults: bad int: p0");
    ("fault skew", "error faults: bad rational: x");
    ("faults last error wins", "error faults: bad int: y");
    ("bad bool", "error reliable: bad bool: yes");
    ("bad checker", "error checker: bad checker: fast");
    ("checker list", "error checker: expected atom");
    ("algorithm atom", "error algorithm: bad algorithm");
    ("bad knob", "error algorithm: bad knob");
    ("knob rational", "error algorithm: bad rational: x");
    ("algorithm rational", "error algorithm: bad rational: x");
    ("bad workload", "error workload: bad workload");
    ("closed-loop int", "error workload: bad int: two");
    ("bad entry", "error workload: bad entry");
    ("bad op reference", "error workload: bad op reference");
    ("entries last error wins", "error workload: bad rational: y");
    ("generated bad float", "error workload: bad float: x");
    ("generated bad arrival", "error workload: bad arrival");
    ("generated bursty size", "error workload: bad int: x");
    ("bad expectation", "error expect: bad expectation");
    ("diagnostic list", "error expect: bad expectation");
    ("max-events", "error max-events: bad int: many");
    ("max-check-nodes", "error max-check-nodes: expected atom");
    ("bad predicate", "error predicate: bad predicate");
    ("predicate arity", "error predicate: bad predicate");
    ("bad state atom", "error predicate: bad state atom");
    ("bad final atom", "error predicate: bad final atom");
    ("nested predicate", "error predicate: bad int: x");
    ("drop short", "error faults: bad fault spec");
    ("drop long", "error faults: bad fault spec");
    ("spike short", "error faults: bad fault spec");
    ("crash long", "error faults: bad fault spec");
    ("skew short", "error faults: bad fault spec");
    ("edges with a list edge", "error faults: expected atom");
    ("edges short", "error faults: bad edge");
    ("edges head only", "ok 25892b2732245233e4421166c858ccd9");
    ("all as a list", "error faults: bad edges");
    ("wtlw short", "error algorithm: bad algorithm");
    ("wtlw long", "error algorithm: bad algorithm");
    ("knob long", "error algorithm: bad knob");
    ("knob short", "error algorithm: bad knob");
    ("knob atom as list", "error algorithm: bad knob");
    ("tob as list", "error algorithm: bad algorithm");
    ("matrix empty", "error delays: matrix must be n x n");
    ("matrix atom head", "error delays: bad delays");
    ("closed-loop long", "error workload: bad workload");
    ("closed-loop short", "error workload: bad workload");
    ("generated long", "error workload: bad workload");
    ("generated short", "error workload: bad workload");
    ("poisson long", "error workload: bad arrival");
    ("diurnal short", "error workload: bad arrival");
    ("entry long", "error workload: bad entry");
    ("entry short", "error workload: bad entry");
    ("sample long", "error workload: bad op reference");
    ("sample short", "error workload: bad op reference");
    ("tagged op list", "error workload: bad op reference");
    ("tagged bad int", "error workload: bad int: x");
    ("explicit empty", "ok bf2905ec7f2524b0de6e78edd600cc85");
    ("explicit entry atom", "error workload: bad entry");
    ("not long", "error predicate: bad predicate");
    ("or short", "error predicate: bad predicate");
    ("always long", "error predicate: bad predicate");
    ("completed-ge long", "error predicate: bad state atom");
    ("op-is list", "error predicate: bad state atom");
    ("op-is long", "error predicate: bad state atom");
    ("pending-le short", "error predicate: bad final atom");
    ("linearizable as list", "error predicate: bad final atom");
    ("true as list", "error predicate: bad predicate");
    ("diagnostic long", "error expect: bad expectation");
    ("diagnostic short", "error expect: bad expectation");
    ("certify as list", "error expect: bad expectation");
    ("none as list", "error max-events: expected atom");
    ("quoted none", "ok f59221197b4da90dad9d1d25872f3eec");
    ("bool as list", "error reliable: expected atom");
    ("model list value", "error model: expected atom");
    ("model long", "error model: expected (model N D U EPS)");
    ("offsets empty", "error offsets: offsets length must equal the model's n");
    ("faults seed list", "error faults: expected atom");
    ("field with list key", "ok fbc3eca12b2bb27c67049e162a26b65e");
    ("empty field list", "ok fbc3eca12b2bb27c67049e162a26b65e");
    ("quoted key with escape", "ok fbc3eca12b2bb27c67049e162a26b65e");
    ("name quoted escapes", "ok 3d634c94e03127a57d325b9b27bb5ce7");
    ("deep nesting", "ok ead7e494e8ddeeade2afd8a24a59a6b6");
    ("float spellings", "ok 25d411b26da7b846eda21b742ca5c1ef");
    ("int min", "ok 5fbd08f2f54ba21aaa20bde3e42b5fd5");
    ("int max", "ok 05008f44ec5358ad7f3b58fd633f5de7");
    ("int too big", "error seed: bad int: 4611686018427387904");
    ("nineteen digits", "ok 76adccd105fe64a2f651e02815da80e1");
    ("leading zeros", "ok af35a4f9d6b9cc3739b8d85c65d591f1");
    ("minus only", "error seed: bad int: -");
    ("rat negative denominator", "ok 7cfd5bd921754b18e6b58fc4d7cd322f");
    ("rat spaces", "error offsets: bad rational: /2");
    ("base", "ok f59221197b4da90dad9d1d25872f3eec");
    ("hex, underscores and plus", "ok f5298bda39cf0f79e727ce294da8efda");
    ("rational spellings", "ok 603915cd9a76a777980f04c9255a9b84");
    ("quoted keys and atoms", "ok af35a4f9d6b9cc3739b8d85c65d591f1");
    ("comments and whitespace", "ok fbc3eca12b2bb27c67049e162a26b65e");
    ("first occurrence wins", "ok d8905b615f7ab3ad96603f8724a290b8");
    ("bad duplicate ignored", "ok d8905b615f7ab3ad96603f8724a290b8");
    ("every construct", "ok bf0ee33ffe7495a66045d7eaac98d403");
    ("generated arrivals", "ok 1d8ef220bb1d444fb0da01f5a503ed70");
    ("bursty and knobs", "ok 6b2a0fcaa716b5176ed13c9d53a599f3");
    ("algorithms", "ok ca6d1cc69c4c794e0d995eac82aaf9b1");
  ]

(* The same for [validation_inputs]: before these fields were
   validated, every one of them decoded. *)
let validation_expected =
  [
    ("drop above one", "error faults: Fault: probability must lie in [0, 1]");
    ("drop nan", "error faults: Fault: probability must lie in [0, 1]");
    ("duplicate negative", "error faults: Fault: probability must lie in [0, 1]");
    ("spike negative margin", "error faults: Fault.spikes: margin must be positive");
    ("spike zero margin", "error faults: Fault.spikes: margin must be positive");
    ("spike bad probability and margin", "error faults: Fault: probability must lie in [0, 1]");
    ("crash process above n", "error faults: Fault: crash process 7 outside [0, 3)");
    ("crash process negative", "error faults: Fault: crash process -1 outside [0, 3)");
    ("skew process at n", "error faults: Fault: skew process 3 outside [0, 3)");
    ("drop edge above n", "error faults: Fault: drop edge (0 9) outside [0, 3)");
    ("spike edge negative", "error faults: Fault: spike edge (-1 2) outside [0, 3)");
    ("crash time negative", "error faults: Fault: crash time -5 is negative");
    ("matrix delay negative", "error delays: delay -8 from 0 to 1 is negative");
    ("max-events negative", "error max-events: -5 is not positive");
    ("max-events zero", "error max-events: 0 is not positive");
    ("max-check-nodes negative", "error max-check-nodes: -1 is not positive");
  ]

let every_construct_rendering =
  {|(scenario
  (name "a b\"c")
  (type queue)
  (model 3 10 4 1)
  (offsets 0 1/2 -1)
  (delays (matrix (8 9 10) (10 10 10) (6 7 17/2)))
  (faults 9 (drop 0.05 all) (duplicate 0.25 (edges (0 1) (2 0))) (spike 0.5 3/2 below (edges)) (spike 1 5 above all) (crash 1 40) (skew 2 -1/3))
  (reliable true)
  (checker wing-gong)
  (algorithm (wtlw 3 (short-execute-wait 1/2)))
  (workload (explicit (0 1 (sample enqueue 0)) (2 3/2 (tagged dequeue 4))))
  (seed -9)
  (max-events 100)
  (max-check-nodes 7)
  (expect (diagnostic "node budget"))
  (predicate (and (or (not (always (completed-ge 1))) (eventually (latency-le 7/2))) (and (always (op-is "enq ueue")) (and (eventually (resp-by 100)) (and (finally (pending-le 0)) (and (finally (messages-le 9)) (and (finally (faults-le 3)) (or (finally linearizable) (finally converged))))))))))
|}

let decode_result s =
  match Scenario.of_string s with
  | Ok t -> "ok " ^ Digest.to_hex (Digest.string (Scenario.to_string t))
  | Error e -> "error " ^ e

let check_rows inputs expected =
  Alcotest.(check int) "row count" (List.length expected) (List.length inputs);
  List.iter2
    (fun (label, input) (label', want) ->
      Alcotest.(check string) "row label" label' label;
      Alcotest.(check string) label want (decode_result input))
    inputs expected

(* Renderings pinned byte for byte: the MD5 of a 500-scenario batch and
   the builtins, and one scenario using every constructor, bare and
   quoted names, negative and fractional rationals, and floats. *)
let test_rendering_pinned () =
  let all = Scenario.Generate.batch ~seed:1 ~count:500 @ Scenario.Builtin.all in
  let text = String.concat "" (List.map Scenario.to_string all) in
  Alcotest.(check string) "batch and builtins" "44b930a8c3372cb760a07f128bf58a61"
    (Digest.to_hex (Digest.string text));
  match Scenario.of_string (List.assoc "every construct" decode_inputs) with
  | Error e -> Alcotest.failf "every construct: %s" e
  | Ok s ->
      Alcotest.(check string) "every construct" every_construct_rendering
        (Scenario.to_string s)

let test_decode_pinned () = check_rows decode_inputs decode_expected

(* A drop probability of 2 used to run (and fail linearizability), a
   nan one or a negative spike margin to run and pass.  Decoding now
   builds specs through [Sim.Fault]'s constructors and reports their
   complaint. *)
let test_fault_specs_validated () =
  check_rows validation_inputs validation_expected;
  let path = Filename.temp_file "scenario" ".scn" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (List.assoc "drop above one" validation_inputs));
      Alcotest.(check (result reject string)) "load refuses the file"
        (Error "faults: Fault: probability must lie in [0, 1]")
        (Result.map ignore (Scenario.load path)))

(* The rendering's top-level fields, without the [(scenario] head:
   one per line, the last one carrying the closing parenthesis. *)
let rendered_fields r =
  match String.split_on_char '\n' r with
  | _head :: rest ->
      let fields = List.filter (fun l -> l <> "") rest in
      let strip l = String.sub l 2 (String.length l - 2) in
      let n = List.length fields in
      List.mapi
        (fun i l ->
          let l = strip l in
          if i = n - 1 then String.sub l 0 (String.length l - 1) else l)
        fields
  | [] -> []

(* [(key rest] as [("key" rest]. *)
let quote_key f =
  let k = String.index f ' ' in
  "(\"" ^ String.sub f 1 (k - 1) ^ "\"" ^ String.sub f k (String.length f - k)

(* A rendering decoded again after its fields are shuffled, separated
   by random whitespace and comments, keys quoted, a comment put after
   a key, unknown fields and atoms added, and some fields repeated with
   a later, unreadable value: the first occurrence wins. *)
let relayout rng r =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let fields = Array.of_list (rendered_fields r) in
  for i = Array.length fields - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = fields.(i) in
    fields.(i) <- fields.(j);
    fields.(j) <- t
  done;
  let fields =
    Array.map
      (fun f ->
        let f = if Random.State.int rng 4 = 0 then quote_key f else f in
        if Random.State.int rng 6 = 0 then
          let k = String.index f ' ' in
          String.sub f 0 k ^ " ; note (\n" ^ String.sub f k (String.length f - k)
        else f)
      fields
  in
  let repeats =
    List.filter_map
      (fun f ->
        if Random.State.int rng 5 = 0 then
          Some (String.sub f 0 (String.index f ' ') ^ " (not a value) x)")
        else None)
      (Array.to_list fields)
  in
  let extras =
    List.filter
      (fun _ -> Random.State.bool rng)
      [ "(unknown-field 1 (2 \"x y\") ())"; "stray-atom"; "()"; "((seed) 9)" ]
  in
  let sep () =
    pick [ " "; "\n  "; "\t"; "\r\n"; " ; a comment\n"; "\n;; (\") comment\n  " ]
  in
  let items = Array.to_list fields @ repeats @ extras in
  let b = Buffer.create 1024 in
  Buffer.add_string b (pick [ "(scenario"; "(\"scenario\""; "  ; lead\n(scenario" ]);
  List.iter
    (fun item ->
      Buffer.add_string b (sep ());
      Buffer.add_string b item)
    items;
  Buffer.add_string b (pick [ ")"; " )\n"; ") ; trailing\n" ]);
  Buffer.contents b

let decode_ignores_layout =
  QCheck.Test.make ~name:"decode ignores field order and layout" ~count:300
    QCheck.(pair (int_range 1 1_000_000) int)
    (fun (seed, layout) ->
      let s =
        match seed mod 10 with
        | 0 -> counterexample
        | 1 -> Scenario.Builtin.ablation_register
        | _ -> Scenario.gen ~seed
      in
      let text = relayout (Random.State.make [| layout |]) (Scenario.to_string s) in
      match Scenario.of_string text with
      | Ok s' -> Scenario.equal s s' || QCheck.Test.fail_reportf "changed:\n%s" text
      | Error e -> QCheck.Test.fail_reportf "%s:\n%s" e text)

(* ------------------------------------------------------------------ *)
(* Generation *)

let test_gen_deterministic () =
  for seed = 1 to 10 do
    let a = Scenario.gen ~seed and b = Scenario.gen ~seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d is byte-identical" seed)
      (Scenario.to_string a) (Scenario.to_string b)
  done;
  (* distinct seeds do vary *)
  Alcotest.(check bool) "seeds 1 and 2 differ" false
    (Scenario.equal (Scenario.gen ~seed:1) (Scenario.gen ~seed:2))

let test_generated_certify () =
  List.iter
    (fun (s : Scenario.t) ->
      let o = Scenario.run s in
      if not (Scenario.Exec.passes o) then
        Alcotest.failf "%s failed: %s" s.name
          (match (o.Scenario.Exec.diagnostic, o.Scenario.Exec.witness) with
          | Some d, _ -> d
          | _, Some w -> w
          | _ -> "?"))
    (Scenario.Generate.batch ~seed:1 ~count:15)

(* A scenario name with UTF-8 and a tab must come out as valid JSON:
   the UTF-8 bytes verbatim, the tab as \t, and never OCaml's \ddd
   decimal escapes, which JSON parsers reject. *)
let test_json_outcome_escapes () =
  let s = { (Scenario.gen ~seed:1) with name = "caf\xc3\xa9\tq" } in
  let line =
    Core.Json.spaced (Scenario.Exec.json_of_outcome (Scenario.run s))
  in
  let has_decimal_escape =
    let rec at i =
      i + 1 < String.length line
      && ((line.[i] = '\\'
          && (match line.[i + 1] with '0' .. '9' -> true | _ -> false))
         || at (if line.[i] = '\\' then i + 2 else i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "no \\ddd escape" false has_decimal_escape;
  Alcotest.(check bool) "name escaped as JSON" true
    (String.starts_with ~prefix:"{\"scenario\": \"caf\xc3\xa9\\tq\"," line);
  let read = Result.get_ok (Core.Json.parse line) in
  Alcotest.(check (option string)) "name reads back" (Some s.name)
    Core.Json.(to_str (member "scenario" read));
  Alcotest.(check (option bool)) "verdict reads back" (Some true)
    Core.Json.(to_bool (member "passed" read));
  Alcotest.(check string) "reads back to the same bytes" line
    (Core.Json.spaced read);
  let bytes = "\"\\\n\r\t\x01\x1f \xc3\xa9" in
  Alcotest.(check string) "control bytes"
    {|"\"\\\n\r\t\u0001\u001f é"|}
    (Core.Json.compact (String bytes));
  Alcotest.(check bool) "control bytes read back" true
    (Core.Json.parse {|"\"\\\n\r\t\u0001\u001f é"|} = Ok (String bytes))

(* ------------------------------------------------------------------ *)
(* Expectations *)

(* A model point whose times leave the 63-bit rationals: the reliable
   channel's inflated model overflows while the scenario is lowered.
   The run ends in the one named overflow diagnostic, which a
   [Diagnostic] expectation can name. *)
let test_overflow_is_named () =
  let model =
    Sim.Model.make ~n:3 ~d:(Rat.of_int 1_000_000_000_000_000_000)
      ~u:(Rat.of_int 4) ~eps:Rat.one
  in
  let s =
    Scenario.make ~dt:"queue" ~model ~reliable:true
      ~algorithm:Scenario.Centralized
      ~workload:(Scenario.Closed_loop { per_proc = 2; think = Rat.make 1 2 })
      ()
  in
  let o = Scenario.run s in
  Alcotest.(check (option string)) "named overflow"
    (Some (Scenario.Exec.abort_message Overflow)) o.Scenario.Exec.diagnostic;
  Alcotest.(check bool) "certify fails" false (Scenario.Exec.passes o);
  Alcotest.(check bool) "a diagnostic expectation naming it passes" true
    (Scenario.Exec.passes
       (Scenario.run { s with expect = Scenario.Diagnostic "time overflow" }))

(* A negative closed-loop count is refused where the scenario is
   lowered, so a scenario file is refused like the CLI flags; zero
   operations per process still runs, and invokes nothing. *)
let test_negative_per_proc_refused () =
  let model =
    Sim.Model.make ~n:3 ~d:(Rat.of_int 10) ~u:(Rat.of_int 4) ~eps:Rat.one
  in
  let closed per_proc =
    Scenario.run
      (Scenario.make ~dt:"queue" ~model ~algorithm:Scenario.Centralized
         ~workload:(Scenario.Closed_loop { per_proc; think = Rat.make 1 2 })
         ())
  in
  let o = closed (-1) in
  Alcotest.(check (option string)) "named refusal"
    (Some "bad scenario: closed-loop per_proc -1 is negative")
    o.Scenario.Exec.diagnostic;
  let zero = closed 0 in
  Alcotest.(check bool) "zero per process certifies" true
    (Scenario.Exec.passes zero);
  Alcotest.(check int) "zero per process invokes nothing" 0
    zero.Scenario.Exec.operations

(* A scenario built in code passes the same range checks as a decoded
   one: a negative matrix delay once reached the engine and died there
   in an assertion.  A valid scenario's checks allocate nothing. *)
let test_code_built_refused () =
  let s = Scenario.gen ~seed:3 in
  let n = s.model.Sim.Model.n in
  let m = Array.make_matrix n n s.model.Sim.Model.d in
  let entry proc =
    { Scenario.proc; at = Rat.zero; op = Sample { op = "x"; index = 0 } }
  in
  let valid =
    {
      s with
      delays = Matrix m;
      workload = Explicit [ entry 0; entry (n - 1) ];
      faults =
        Sim.Fault.plan
          [
            Sim.Fault.crash ~proc:(n - 1) ~at:Rat.one;
            Sim.Fault.drops 0.5;
            Sim.Fault.spikes ~margin:Rat.one 1.;
          ];
      max_events = Some 1;
    }
  in
  Alcotest.(check bool) "valid" true (Scenario.validate valid = Ok ());
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Scenario.validate valid))
  done;
  Alcotest.(check (float 0.)) "valid allocates nothing" 0.
    (Gc.minor_words () -. before);
  let negative = Array.map Array.copy m in
  negative.(0).(1) <- Rat.of_int (-8);
  List.iter
    (fun (s, named) ->
      Alcotest.(check (option string)) named (Some ("bad scenario: " ^ named))
        (Scenario.run s).Scenario.Exec.diagnostic)
    ([
      ( { s with delays = Matrix negative },
        "delays: delay -8 from 0 to 1 is negative" );
      ({ s with delays = Matrix [| m.(0) |] }, "delays: matrix must be n x n");
      ( { s with offsets = [||] },
        "offsets: offsets length must equal the model's n" );
      ({ s with max_events = Some 0 }, "max-events: 0 is not positive");
      ( { s with workload = Explicit [ entry n ] },
        Printf.sprintf "entry proc %d outside the model" n );
    ]
    @ List.map
        (fun (spec, named) ->
          ({ s with faults = Sim.Fault.plan [ spec ] }, "faults: " ^ named))
        [
          ( Sim.Fault.Drop { p = 2.; edges = All },
            "Fault: probability must lie in [0, 1]" );
          ( Sim.Fault.Duplicate { p = Float.nan; edges = All },
            "Fault: probability must lie in [0, 1]" );
          ( Sim.Fault.Spike
              { p = -1.; edges = All; margin = Rat.one; below = false },
            "Fault: probability must lie in [0, 1]" );
          ( Sim.Fault.Spike
              { p = 0.5; edges = All; margin = Rat.zero; below = false },
            "Fault.spikes: margin must be positive" );
          ( Sim.Fault.Crash { proc = 0; at = Rat.of_int (-1) },
            "Fault: crash time -1 is negative" );
        ])

let test_expectations () =
  (* The verbatim counterexample fails Certify and passes Violate. *)
  Alcotest.(check bool) "verbatim fails Certify" false
    (Scenario.Exec.passes (Scenario.run counterexample));
  Alcotest.(check bool) "verbatim passes Violate" true
    (Scenario.Exec.passes
       (Scenario.run (Scenario.with_expect counterexample Scenario.Violate)))

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let shrunk =
  lazy
    (match Scenario.shrink counterexample with
    | Error msg -> Alcotest.failf "shrink refused: %s" msg
    | Ok o -> o)

let test_shrink_minimizes () =
  let o = Lazy.force shrunk in
  (* Still failing, and no larger than the five-invocation hand-written
     counterexample (the acceptance bound). *)
  Alcotest.(check bool) "shrunk scenario still fails" false
    (Scenario.Exec.passes o.Scenario.Shrink.exec);
  Alcotest.(check bool) "strictly smaller" true
    (o.Scenario.Shrink.final_size < o.Scenario.Shrink.initial_size);
  let invs = Scenario.invocations o.Scenario.Shrink.scenario in
  if invs > 5 then
    Alcotest.failf "shrunk to %d invocations, more than the hand-written 5"
      invs

let test_shrink_deterministic () =
  let a = Lazy.force shrunk in
  match Scenario.shrink counterexample with
  | Error msg -> Alcotest.failf "second shrink refused: %s" msg
  | Ok b ->
      Alcotest.check scenario_eq "same shrunk scenario"
        a.Scenario.Shrink.scenario b.Scenario.Shrink.scenario;
      Alcotest.(check int) "same number of candidate runs"
        a.Scenario.Shrink.attempts b.Scenario.Shrink.attempts

let test_shrink_fixpoint () =
  let a = Lazy.force shrunk in
  match Scenario.shrink a.Scenario.Shrink.scenario with
  | Error msg -> Alcotest.failf "re-shrink refused: %s" msg
  | Ok b ->
      Alcotest.(check int) "no further accepted moves" 0
        b.Scenario.Shrink.steps;
      Alcotest.check scenario_eq "re-shrink returns it unchanged"
        a.Scenario.Shrink.scenario b.Scenario.Shrink.scenario

let test_shrink_rejects_passing () =
  match Scenario.shrink (Scenario.with_knob counterexample Core.Ablation.Paper)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shrinking a passing scenario must be refused"

(* ------------------------------------------------------------------ *)
(* Bound probing *)

let test_probe_tightness () =
  let o = Lazy.force shrunk in
  match Scenario.Probe.probe o.Scenario.Shrink.scenario with
  | Error msg -> Alcotest.failf "probe refused: %s" msg
  | Ok r ->
      Alcotest.(check bool) "matrix admissible" true
        r.Scenario.Probe.bounds.Bounds.Adversary.Probe.matrix_admissible;
      Alcotest.(check bool) "witnesses bound tightness" true
        (Scenario.Probe.witnesses_tightness r)

let test_probe_needs_matrix () =
  match Scenario.Probe.probe (Scenario.gen ~seed:1) with
  | Error _ -> ()  (* seed 1 generates a symbolic delay family *)
  | Ok _ -> ()

(* ------------------------------------------------------------------ *)
(* Sexp parser *)

(* A tree read back from scanned text through the offset readers the
   codec uses: [is_list], [first], [sibling], [is_close], [atom_at]. *)
type tree = Atom of string | List of tree list

let rec read_tree s i =
  let open Scenario.Sexp in
  if is_list s i then
    let rec items j =
      if is_close s j then [] else read_tree s j :: items (sibling s j)
    in
    List (items (first s i))
  else Atom (atom_at s i)

(* Single-line canonical text, atoms spelled by [add_atom]. *)
let rec add_tree b = function
  | Atom a -> Scenario.Sexp.add_atom b a
  | List l ->
      Buffer.add_char b '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ' ';
          add_tree b x)
        l;
      Buffer.add_char b ')'

let tree_text t =
  let b = Buffer.create 64 in
  add_tree b t;
  Buffer.contents b

let read input =
  match Scenario.Sexp.scan input ~field:ignore with
  | Ok () -> Ok (read_tree input (Scenario.Sexp.skip input 0))
  | Error _ as e -> e

(* Messages and offsets of [Sexp.scan], pinned byte for byte (taken
   from the option-per-character scanner the index scan replaced); an
   accepted input is read back and rewritten canonically. *)
let test_sexp_pinned () =
  let expect label input expected =
    let got =
      match read input with
      | Ok t -> "ok " ^ tree_text t
      | Error e -> "error " ^ e
    in
    Alcotest.(check string) label expected got
  in
  expect "unterminated string" "(a \"bc" "error unterminated string at offset 6";
  expect "unterminated string after an escape" "(\"a\\nb"
    "error unterminated string at offset 6";
  expect "unterminated list" "(a (b c)" "error unterminated list at offset 8";
  expect "bad escape" "(a \"b\\qc\")" "error bad escape at offset 6";
  expect "escape at end of input" "\"ab\\" "error bad escape at offset 4";
  expect "trailing input" "(a b) c" "error trailing input at offset 6";
  expect "unexpected ')'" ")" "error unexpected ')' at offset 0";
  expect "extra ')' is trailing input" "(a ))" "error trailing input at offset 4";
  expect "empty input" "" "error unexpected end of input at offset 0";
  expect "whitespace only" "  \n\t " "error unexpected end of input at offset 5";
  expect "comment only" "; just a comment\n; another"
    "error unexpected end of input at offset 26";
  expect "NUL inside a bare atom" "(a\000b c)" "ok (\"a\000b\" c)";
  expect "non-ASCII inside a bare atom" "(caf\xc3\xa9 x)" "ok (caf\xc3\xa9 x)";
  expect "escapes" "(\"a b\" \"c\\\\d\\n\\\"\")" "ok (\"a b\" \"c\\\\d\\n\\\"\")";
  expect "comment between items" "(a ; c\n b)" "ok (a b)"

(* Trees whose atoms are drawn mostly from bytes that force quoting
   (delimiters, quotes, backslashes, control bytes), plus the empty
   atom and non-ASCII bytes: what [add_atom] wrote, [scan] accepts and
   the readers give back; [atom_is] recognises every atom. *)
let arb_tree =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (3, oneofl [ ' '; '\t'; '\n'; '\r'; '('; ')'; '"'; '\\'; ';'; '\000' ]);
        (3, char_range 'a' 'z');
        (1, map Char.chr (int_range 0x80 0xff));
        (1, map Char.chr (int_range 0 0x1f));
      ]
  in
  let atom = map (fun s -> Atom s) (string_size ~gen:byte (0 -- 6)) in
  let tree =
    sized_size (0 -- 4)
    @@ fix (fun self depth ->
           if depth = 0 then atom
           else
             frequency
               [
                 (1, atom);
                 (2, map (fun l -> List l) (list_size (0 -- 4) (self (depth - 1))));
               ])
  in
  QCheck.make ~print:tree_text tree

let rec atoms_recognised s i =
  let open Scenario.Sexp in
  if is_list s i then
    let rec items j =
      is_close s j || (atoms_recognised s j && items (sibling s j))
    in
    items (first s i)
  else atom_is s i (atom_at s i)

let sexp_round_trip =
  QCheck.Test.make ~name:"scan reads back what add_atom wrote" ~count:500
    arb_tree (fun t ->
      let text = tree_text t in
      read text = Ok t && atoms_recognised text (Scenario.Sexp.skip text 0))

let () =
  Alcotest.run "scenario"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "file round trip" `Quick test_file_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "sexp messages pinned" `Quick test_sexp_pinned;
          Alcotest.test_case "rendering pinned" `Quick test_rendering_pinned;
          Alcotest.test_case "decode results pinned" `Quick test_decode_pinned;
          Alcotest.test_case "fault specs validated" `Quick
            test_fault_specs_validated;
          QCheck_alcotest.to_alcotest decode_ignores_layout;
          QCheck_alcotest.to_alcotest sexp_round_trip;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "batch certifies" `Quick test_generated_certify;
          Alcotest.test_case "json outcome escapes names" `Quick
            test_json_outcome_escapes;
        ] );
      ( "expect",
        [
          Alcotest.test_case "certify vs violate" `Quick test_expectations;
          Alcotest.test_case "overflow is a named diagnostic" `Quick
            test_overflow_is_named;
          Alcotest.test_case "negative per_proc refused" `Quick
            test_negative_per_proc_refused;
          Alcotest.test_case "code-built scenario refused by name" `Quick
            test_code_built_refused;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes the ablation failure" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "deterministic" `Quick test_shrink_deterministic;
          Alcotest.test_case "fixpoint" `Quick test_shrink_fixpoint;
          Alcotest.test_case "rejects passing scenarios" `Quick
            test_shrink_rejects_passing;
        ] );
      ( "probe",
        [
          Alcotest.test_case "tightness witness" `Quick test_probe_tightness;
          Alcotest.test_case "needs a matrix" `Quick test_probe_needs_matrix;
        ] );
    ]
