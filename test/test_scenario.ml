(* Scenario DSL tests: the canonical codec round-trips, generation and
   shrinking are seed-deterministic, the shrinker minimizes the seeded
   ablation failure to (at most) the hand-written counterexample and
   reaches a fixpoint, the shrunk matrix witnesses bound tightness,
   and the sweep/shard projections agree with the engines they lower
   onto. *)

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
  List.iter check_one (Scenario.Generate.batch ~seed:1 ~count:15)

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
  let line = Scenario.Exec.json_of_outcome (Scenario.run s) in
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
  Alcotest.(check string) "control bytes"
    {|"\"\\\n\r\t\u0001\u001f é"|}
    (Core.Json.quote "\"\\\n\r\t\x01\x1f \xc3\xa9")

(* ------------------------------------------------------------------ *)
(* Expectations *)

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
(* Projections *)

let test_sweep_projection () =
  let grid = Sweep.default_grid in
  List.iteri
    (fun i cell ->
      if i mod 17 = 0 then
        let s = Scenario.of_sweep_cell grid cell in
        let o = Scenario.run s in
        match Sweep.eval grid cell with
        | Error e -> Alcotest.failf "sweep eval failed: %s" e
        | Ok v ->
            Alcotest.(check bool)
              (Sweep.cell_key grid cell ^ ": verdicts agree")
              v.Sweep.ok o.Scenario.Exec.ok)
    (Sweep.cells grid)

let test_shard_projection () =
  let s = Scenario.gen ~seed:2 in
  let s =
    {
      s with
      Scenario.workload =
        Scenario.Generated
          {
            arrival = Core.Workload.Poisson { rate = Rat.make 1 4 };
            zipf = 0.9;
            keys = 16;
            ops = 120;
          };
      reliable = false;
      faults = Sim.Fault.none;
      algorithm = Scenario.Wtlw { x = Rat.zero; knob = Core.Ablation.Paper };
    }
  in
  match Scenario.to_shard_config ~shards:2 s with
  | Error e -> Alcotest.failf "shard lowering failed: %s" e
  | Ok cfg ->
      let pt = Option.get (Sweep.Packed_type.find s.Scenario.dt) in
      let r = Shard.run ~jobs:1 cfg pt in
      Alcotest.(check bool) "sharded scenario certifies" true
        r.Shard.certified;
      (* explicit schedules have no key structure to shard *)
      (match Scenario.to_shard_config ~shards:2 counterexample with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "explicit workload must not shard")

let () =
  Alcotest.run "scenario"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "file round trip" `Quick test_file_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
      ( "generate",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "batch certifies" `Quick test_generated_certify;
          Alcotest.test_case "json outcome escapes names" `Quick
            test_json_outcome_escapes;
        ] );
      ( "expect",
        [ Alcotest.test_case "certify vs violate" `Quick test_expectations ] );
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
      ( "projections",
        [
          Alcotest.test_case "sweep cell" `Quick test_sweep_projection;
          Alcotest.test_case "shard config" `Quick test_shard_projection;
        ] );
    ]
