(* Tests for the multicore sweep engine: byte-identical fingerprints
   across domain counts, the derived-seed contract, fail-fast
   cancellation without lost reports, the checker's node-budget
   diagnostic, and the pool-backed robustness matrix. *)

let rat = Rat.make

let packed key =
  match Sweep.Packed_type.find key with
  | Some pt -> pt
  | None -> Alcotest.failf "unknown packed type %s" key

let contains haystack needle =
  let nlen = String.length needle and hlen = String.length haystack in
  let rec at i =
    i + nlen <= hlen && (String.sub haystack i nlen = needle || at (i + 1))
  in
  at 0

(* A quick grid: 2 types x 3 algorithms x 2 points x raw/recovered. *)
let small_grid =
  { Sweep.default_grid with types = [ packed "register"; packed "queue" ] }

(* Every cell of this grid exhausts a one-node checker budget.  The
   Wing-Gong engine is pinned: under the default monitor checker most
   cells certify on the fast path and never consult the DFS budget. *)
let budget_grid =
  {
    small_grid with
    max_check_nodes = Some 1;
    checker = Core.Runtime.Wing_gong;
  }

let test_fingerprint_jobs_independent () =
  let t1 = Sweep.run ~jobs:1 small_grid in
  let t4 = Sweep.run ~jobs:4 small_grid in
  Alcotest.(check int) "all cells evaluated" (Array.length t1.cells)
    (let done_, _, _, _ = Sweep.counts t1 in
     done_);
  Alcotest.(check bool) "grid certified" true (Sweep.certified t1);
  Alcotest.(check string) "jobs 1 and 4 byte-identical"
    (Sweep.fingerprint t1) (Sweep.fingerprint t4)

(* A 12-cell report reads back to the bytes it was printed as, with
   every cell's key and the summary's counts under their names. *)
let test_json_reads_back () =
  let grid = { small_grid with types = [ packed "register" ] } in
  let t = Sweep.run ~jobs:1 grid in
  let printed = Core.Json.compact (Sweep.to_json t) in
  let json = Result.get_ok (Core.Json.parse printed) in
  Alcotest.(check string) "same bytes" printed (Core.Json.compact json);
  let open Core.Json in
  let cells = Option.get (to_list (member "cells" json)) in
  Alcotest.(check (list (option string))) "every cell key, in order"
    (List.map Option.some (Array.to_list t.keys))
    (List.map (fun c -> to_str (member "key" c)) cells);
  Alcotest.(check int) "12 cells" 12 (List.length cells);
  Alcotest.(check (option int)) "done" (Some 12)
    (to_int (member "done" (member "summary" json)));
  Alcotest.(check (option bool)) "certified" (Some (Sweep.certified t))
    (to_bool (member "certified" json))

(* The per-cell seed is the FNV-1a hash of the canonical cell key, so
   it can never depend on the claiming domain or the wall clock; the
   cell's scenario, which [Sweep.eval] runs, carries that key and seed. *)
let test_derived_seed_is_fnv_of_key () =
  Alcotest.(check int) "FNV-1a offset basis" 0x811c9dc5 (Core.Hash.fnv1a "");
  Alcotest.(check int) "FNV-1a of \"a\"" 0xe40c292c (Core.Hash.fnv1a "a");
  List.iter
    (fun cell ->
      let key = Sweep.cell_key small_grid cell in
      Alcotest.(check int) (key ^ " seed") (Core.Hash.fnv1a key)
        (Sweep.derived_seed small_grid cell);
      let s = Scenario.of_sweep_cell small_grid cell in
      Alcotest.(check string) "scenario named by the key" key s.Scenario.name;
      Alcotest.(check int) (key ^ " scenario seed")
        (Sweep.derived_seed small_grid cell) s.Scenario.seed)
    (Sweep.cells small_grid)

let test_budget_diagnostic_is_named () =
  let cell = List.hd (Sweep.cells budget_grid) in
  match Sweep.eval budget_grid cell with
  | Ok _ -> Alcotest.fail "one-node budget should abort the search"
  | Error msg ->
      Alcotest.(check bool) "diagnostic names the budget" true
        (contains msg "linearizability search aborted after");
      Alcotest.(check bool) "diagnostic names the cell" true
        (contains msg (Sweep.cell_key budget_grid cell))

(* A grid point whose recovered leg's inflated model overflows [Rat]:
   the cell fails with the named overflow diagnostic, keyed. *)
let test_overflow_diagnostic_is_named () =
  let grid =
    {
      small_grid with
      types = [ packed "register" ];
      algos = [ Sweep.Tob ];
      points =
        [
          Sim.Model.make ~n:3 ~d:(Rat.of_int 1_000_000_000_000_000_000)
            ~u:(Rat.of_int 4) ~eps:Rat.one;
        ];
      legs = [ Sweep.Recovered ];
    }
  in
  let cell = List.hd (Sweep.cells grid) in
  match Sweep.eval grid cell with
  | Ok _ -> Alcotest.fail "d = 10^18 must overflow"
  | Error msg ->
      Alcotest.(check string) "keyed overflow diagnostic"
        (Sweep.cell_key grid cell ^ ": "
        ^ Scenario.Exec.abort_message Overflow)
        msg

(* Sequential fail-fast: the first failure cancels every unclaimed
   cell; nothing is lost, nothing after the failure runs. *)
let test_fail_fast_sequential () =
  let t = Sweep.run ~jobs:1 ~fail_fast:true budget_grid in
  let total = Array.length t.cells in
  let done_, _, failed, skipped = Sweep.counts t in
  Alcotest.(check int) "every cell accounted for" total
    (done_ + failed + skipped);
  Alcotest.(check int) "no completions" 0 done_;
  Alcotest.(check int) "exactly one failure before the cancel" 1 failed;
  Alcotest.(check int) "rest skipped" (total - 1) skipped;
  Alcotest.(check bool) "not certified" false (Sweep.certified t);
  match t.results.(0) with
  | Sweep.Pool.Failed msg ->
      Alcotest.(check bool) "failure carries the diagnostic" true
        (contains msg "linearizability search aborted after")
  | _ -> Alcotest.fail "first cell should be the failure"

(* Parallel fail-fast: in-flight cells may still finish, but every
   slot ends up Done, Failed or Skipped — no lost reports. *)
let test_fail_fast_parallel_no_lost_reports () =
  let t = Sweep.run ~jobs:4 ~fail_fast:true budget_grid in
  let done_, _, failed, skipped = Sweep.counts t in
  Alcotest.(check int) "every cell accounted for" (Array.length t.cells)
    (done_ + failed + skipped);
  Alcotest.(check bool) "at least one failure recorded" true (failed >= 1);
  Alcotest.(check bool) "not certified" false (Sweep.certified t)

(* Without fail-fast, a failing cell does not stop its neighbours. *)
let test_no_fail_fast_runs_everything () =
  let t = Sweep.run ~jobs:1 budget_grid in
  let done_, _, failed, skipped = Sweep.counts t in
  Alcotest.(check int) "nothing skipped" 0 skipped;
  Alcotest.(check int) "nothing completes" 0 done_;
  Alcotest.(check int) "every cell failed" (Array.length t.cells) failed

let wrapper_model =
  Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 1 1)

(* The pool-backed robustness matrix: same cells for every domain
   count, and fully certified on the reference parameters. *)
let test_robustness_pool () =
  let model = wrapper_model in
  let x = rat 5 1 in
  let cells1 = Sweep.robustness ~jobs:1 ~model ~x ~seed:7 [ packed "register" ] in
  let cells4 = Sweep.robustness ~jobs:4 ~model ~x ~seed:7 [ packed "register" ] in
  Alcotest.(check int) "six nemesis cases" 6 (List.length cells1);
  Alcotest.(check bool) "certified" true
    (Scenario.Robustness.all_certified cells1);
  let fingerprints cells =
    List.map
      (fun (c : Scenario.Robustness.cell) ->
        (c.data_type, c.case, c.certified, c.raw.fault_counts,
         c.recovered.retransmits))
      cells
  in
  Alcotest.(check bool) "jobs-independent" true
    (fingerprints cells1 = fingerprints cells4)

(* The cell key's old rendering, kept as the oracle: journals and spools
   are keyed by these bytes, and the derived seed hashes them.  Every
   cell is fault-free, and its key says so as it always did. *)
let printf_key (grid : Sweep.grid) (c : Sweep.cell) =
  let m = c.point in
  let algo =
    match c.algo with
    | Sweep.Wtlw { frac } -> Printf.sprintf "wtlw(%s)" (Rat.to_string frac)
    | Centralized -> "centralized"
    | Tob -> "tob"
  and delays =
    match c.delays with
    | Random_delays -> "random"
    | Max_delays -> "max"
    | Min_delays -> "min"
  and leg = match c.leg with Raw -> "raw" | Recovered -> "recovered" in
  Printf.sprintf
    "type=%s;algo=%s;n=%d;d=%s;u=%s;eps=%s;delays=%s;faults=none;leg=%s;seed=%d;per_proc=%d"
    (Sweep.Packed_type.key c.dt) algo m.n (Rat.to_string m.d)
    (Rat.to_string m.u) (Rat.to_string m.eps) delays leg c.seed
    grid.per_proc

let test_cell_key_bytes () =
  let grids =
    [
      { Sweep.default_grid with seeds = List.init 96 (fun i -> i + 1) };
      {
        Sweep.default_grid with
        algos = [ Wtlw { frac = Rat.one }; Wtlw { frac = Rat.zero }; Tob ];
        points =
          [ Sim.Model.make ~n:12 ~d:(rat 1000 1) ~u:(rat 40 1) ~eps:(rat 7 1) ];
        delays = [ Random_delays; Max_delays; Min_delays ];
        seeds = [ 0; -5; max_int; min_int ];
        per_proc = 10;
      };
      {
        Sweep.default_grid with
        algos = [ Wtlw { frac = rat 2 7 }; Wtlw { frac = rat (-1) 2 } ];
        points =
          [ Sim.Model.make ~n:3 ~d:(rat 7 3) ~u:(rat 1 2) ~eps:(rat 1 6) ];
        seeds = [ 42 ];
      };
    ]
  in
  List.iter
    (fun grid ->
      List.iter
        (fun c ->
          let before = Gc.minor_words () in
          let key = Sweep.cell_key grid c in
          let words = Gc.minor_words () -. before in
          Alcotest.(check string) "same bytes" (printf_key grid c) key;
          if words > 100. then
            Alcotest.failf "%s: %.0f words allocated" key words)
        (Sweep.cells grid))
    grids

let () =
  Alcotest.run "sweep"
    [
      ( "determinism",
        [
          Alcotest.test_case "fingerprint independent of jobs" `Quick
            test_fingerprint_jobs_independent;
          Alcotest.test_case "json report reads back" `Quick
            test_json_reads_back;
          Alcotest.test_case "derived seed is FNV-1a of the cell key" `Quick
            test_derived_seed_is_fnv_of_key;
          Alcotest.test_case "cell key bytes as printf rendered them" `Quick
            test_cell_key_bytes;
        ] );
      ( "fail-fast",
        [
          Alcotest.test_case "budget diagnostic is named" `Quick
            test_budget_diagnostic_is_named;
          Alcotest.test_case "overflow diagnostic is named" `Quick
            test_overflow_diagnostic_is_named;
          Alcotest.test_case "sequential cancel skips the rest" `Quick
            test_fail_fast_sequential;
          Alcotest.test_case "parallel cancel loses no reports" `Quick
            test_fail_fast_parallel_no_lost_reports;
          Alcotest.test_case "off by default: everything runs" `Quick
            test_no_fail_fast_runs_everything;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "pool matrix certified and jobs-independent"
            `Quick test_robustness_pool;
        ] );
    ]
