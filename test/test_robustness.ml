(* Tests for the robustness matrix: full certification on a register,
   JSON enumeration of every cell, each leg replayed as a scenario, and
   the step-limit truncation path of the runtime (a truncated run is a
   partial report, not an exception). *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1)
let x = rat 5 1
let seed = 7

module Rob = Scenario.Robustness
module R = Core.Runtime.Make (Spec.Register)

let register = Option.get (Scenario.Packed_type.find "register")

(* The sequential per-type matrix: every nemesis case through
   [run_cell].  (The full multi-type driver is [Sweep.robustness],
   covered by test_sweep.) *)
let run_matrix () =
  List.map
    (Rob.run_cell ~model ~x ~seed register)
    (Rob.default_cases ~seed model)

let matrix = lazy (run_matrix ())

let test_matrix_certified () =
  let cells = Lazy.force matrix in
  Alcotest.(check int) "six nemesis cases" 6 (List.length cells);
  List.iter
    (fun (c : Rob.cell) ->
      Alcotest.(check bool) (c.case ^ " certified") true c.certified)
    cells;
  Alcotest.(check bool) "aggregate verdict" true
    (Rob.all_certified cells)

let test_matrix_verdict_shape () =
  let cells = Lazy.force matrix in
  List.iter
    (fun (c : Rob.cell) ->
      match c.expectation with
      | Rob.Recover ->
          Alcotest.(check bool) (c.case ^ ": recovered leg ok") true
            c.recovered.ok
      | Rob.Detect ->
          Alcotest.(check bool) (c.case ^ ": raw leg flagged") false
            c.raw.ok)
    cells

let test_matrix_deterministic () =
  let fingerprints cells =
    List.map
      (fun (c : Rob.cell) ->
        (c.case, c.certified, c.raw.fault_counts, c.recovered.retransmits))
      cells
  in
  Alcotest.(check bool) "same seed, same matrix" true
    (fingerprints (Lazy.force matrix) = fingerprints (run_matrix ()))

let test_empty_matrix_not_certified () =
  Alcotest.(check bool) "vacuous certification rejected" false
    (Rob.all_certified [])

let test_json_enumerates_every_cell () =
  let cells = Lazy.force matrix in
  let json =
    Result.get_ok (Core.Json.parse (Core.Json.compact (Rob.to_json cells)))
  in
  let case j = Core.Json.(to_str (member "case" j)) in
  Alcotest.(check (list (option string))) "every cell, in order"
    (List.map (fun (c : Rob.cell) -> Some c.case) cells)
    (List.map case (Option.get Core.Json.(to_list (member "matrix" json))));
  Alcotest.(check (option int)) "cell count present" (Some (List.length cells))
    Core.Json.(to_int (member "cells" json));
  Alcotest.(check (option bool)) "aggregate verdict present" (Some true)
    Core.Json.(to_bool (member "certified" json))

(* Every leg is a scenario: the leg's scenario, rendered and parsed
   back as a saved file would be, reproduces the leg's verdict through
   the scenario executor, so a saved leg is a faithful repro file. *)
let test_legs_replay_as_scenarios () =
  List.iter2
    (fun case (c : Rob.cell) ->
      List.iter
        (fun (recovered, (leg : Scenario.Exec.outcome)) ->
          let s = Rob.scenario ~model ~x ~seed ~recovered register case in
          match Scenario.of_string (Scenario.to_string s) with
          | Error msg -> Alcotest.failf "%s does not parse back: %s" s.name msg
          | Ok saved ->
              Alcotest.(check bool) (s.name ^ " ok") leg.ok
                (Scenario.run saved).Scenario.Exec.ok)
        [ (false, c.raw); (true, c.recovered) ])
    (Rob.default_cases ~seed model)
    (Lazy.force matrix)

(* At d = 10^18 the recovered leg's inflated model overflows [Rat]:
   the leg aborts with the named overflow diagnostic, and the cell is
   not certified. *)
let test_overflow_leg_is_named () =
  let huge =
    Sim.Model.make ~n:3 ~d:(Rat.of_int 1_000_000_000_000_000_000)
      ~u:(Rat.of_int 4) ~eps:Rat.one
  in
  let case = List.hd (Rob.default_cases ~seed huge) in
  let c = Rob.run_cell ~model:huge ~x ~seed register case in
  Alcotest.(check (option string)) "recovered leg names the overflow"
    (Some (Scenario.Exec.abort_message Overflow))
    c.recovered.diagnostic;
  Alcotest.(check bool) "not certified" false c.certified

(* Satellite regression: exceeding the step limit yields a partial
   report flagged [truncated], never an escaped exception. *)
let test_truncation_is_a_report () =
  let report =
    R.run
      (R.Config.make ~max_events:40 ~model
         ~offsets:(Array.make 3 Rat.zero)
         ~delay:(Sim.Net.random_model ~seed model)
         ~algorithm:(R.Wtlw { x })
         ~workload:(R.Closed_loop { per_proc = 5; think = Rat.make 1 2; seed })
         ())
  in
  Alcotest.(check bool) "truncated" true report.truncated;
  Alcotest.(check bool) "not ok" false (R.ok report)

let test_untruncated_run_is_clean () =
  let report =
    R.run
      (R.Config.make ~max_events:500_000 ~model
         ~offsets:(Array.make 3 Rat.zero)
         ~delay:(Sim.Net.random_model ~seed model)
         ~algorithm:(R.Wtlw { x })
         ~workload:(R.Closed_loop { per_proc = 3; think = Rat.make 1 2; seed })
         ())
  in
  Alcotest.(check bool) "not truncated" false report.truncated;
  Alcotest.(check bool) "ok" true (R.ok report)

let () =
  Alcotest.run "robustness"
    [
      ( "matrix",
        [
          Alcotest.test_case "all cells certified" `Quick test_matrix_certified;
          Alcotest.test_case "verdict shape per expectation" `Quick
            test_matrix_verdict_shape;
          Alcotest.test_case "deterministic in the seed" `Quick
            test_matrix_deterministic;
          Alcotest.test_case "empty matrix not certified" `Quick
            test_empty_matrix_not_certified;
          Alcotest.test_case "JSON enumerates every cell" `Quick
            test_json_enumerates_every_cell;
          Alcotest.test_case "legs replay as scenarios" `Quick
            test_legs_replay_as_scenarios;
          Alcotest.test_case "overflow leg is named" `Quick
            test_overflow_leg_is_named;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "step limit yields partial report" `Quick
            test_truncation_is_a_report;
          Alcotest.test_case "clean run is untruncated" `Quick
            test_untruncated_run_is_clean;
        ] );
    ]
