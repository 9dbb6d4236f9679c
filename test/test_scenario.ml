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
(* Sexp parser *)

(* Messages and offsets of [Sexp.parse], pinned byte for byte (taken
   from the option-per-character scanner the index scan replaced). *)
let test_sexp_pinned () =
  let expect label input expected =
    let got =
      match Scenario.Sexp.parse input with
      | Ok t -> "ok " ^ Scenario.Sexp.to_string t
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
   atom and non-ASCII bytes: [to_string] then [parse] is the identity. *)
let arb_sexp =
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
  let atom = map (fun s -> Scenario.Sexp.Atom s) (string_size ~gen:byte (0 -- 6)) in
  let tree =
    sized_size (0 -- 4)
    @@ fix (fun self depth ->
           if depth = 0 then atom
           else
             frequency
               [
                 (1, atom);
                 ( 2,
                   map
                     (fun l -> Scenario.Sexp.List l)
                     (list_size (0 -- 4) (self (depth - 1))) );
               ])
  in
  QCheck.make ~print:Scenario.Sexp.to_string tree

let sexp_round_trip =
  QCheck.Test.make ~name:"parse (to_string t) = Ok t" ~count:500 arb_sexp
    (fun t ->
      Scenario.Sexp.parse (Scenario.Sexp.to_string t) = Ok t
      && Scenario.Sexp.parse (Scenario.Sexp.to_string_hum t) = Ok t)

let () =
  Alcotest.run "scenario"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "file round trip" `Quick test_file_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "sexp messages pinned" `Quick test_sexp_pinned;
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
    ]
