(* Three independent oracles must agree on every history the runtime
   certifies: the algorithm's own linearization order checked by the
   verifier ([Monitor.Make.verify_order]), the exhaustive Wing-Gong
   search ([Lin.Checker]), and the per-type monitor kernel wherever it
   decides.  Covers every cell of the reference sweep grid at seeds 1
   and 2 and the 40-scenario pinned batch ([Scenario.gen ~seed:1..40]).
   On the grid, no cell may need Wing-Gong: each is certified by its
   monitor or by its supplied order.  Also checks that the verifier
   refuses corrupted orders, each with its named reason. *)

let wg_budget = 5_000_000

type verdicts = {
  label : string;
  supplied : bool;  (** the supplied order verified *)
  wing_gong : bool;
  kernel : bool option;  (** [None]: the kernel did not decide *)
  checked_by : string option;
  certified : bool;  (** the runtime found a linearization *)
}

(* Run [s] and judge its history with each oracle separately. *)
let verdicts (s : Scenario.t) : verdicts =
  match Scenario.Packed_type.find s.Scenario.dt with
  | None -> Alcotest.failf "%s: unknown type %s" s.name s.dt
  | Some pt -> (
      let (module E : Scenario.Packed_type.RUNNER) =
        Scenario.Packed_type.runner pt
      in
      let module M = Monitor.Make (E.T) in
      match E.config_of s with
      | Error e -> Alcotest.failf "%s: %s" s.name e
      | Ok cfg ->
          let report, order = E.R.run_with_order cfg in
          let ops = report.operations in
          let arr = Array.of_list ops in
          let wing_gong =
            match M.Fallback.check ~max_nodes:wg_budget ops with
            | w -> Option.is_some w
            | exception Lin.Checker.Node_budget_exceeded _ ->
                Alcotest.failf "%s: Wing-Gong over its node budget" s.name
          in
          let kernel =
            let r = M.check ops in
            match r.M.method_ with
            | Monitor.Specialized _ -> Some r.M.linearizable
            | Monitor.Protocol_order | Monitor.Wing_gong -> None
          in
          {
            label = s.name;
            supplied = Result.is_ok (M.verify_order arr (order arr));
            wing_gong;
            kernel;
            checked_by = report.checked_by;
            certified = Option.is_some report.linearization;
          })

let agree v =
  Alcotest.(check bool)
    (v.label ^ ": supplied order agrees with Wing-Gong")
    v.wing_gong v.supplied;
  Option.iter
    (fun k ->
      Alcotest.(check bool)
        (v.label ^ ": kernel agrees with Wing-Gong")
        v.wing_gong k)
    v.kernel

let grid_cells seed =
  let grid = { Sweep.default_grid with seeds = [ seed ] } in
  List.map (Scenario.of_sweep_cell grid) (Sweep.cells grid)

let test_grid seed () =
  let cells = grid_cells seed in
  Alcotest.(check int) "every cell of the reference grid" 120
    (List.length cells);
  let by_order = ref 0 and by_monitor = ref 0 in
  List.iter
    (fun s ->
      let v = verdicts s in
      agree v;
      Alcotest.(check bool) (v.label ^ ": certified") true v.certified;
      (match v.checked_by with
      | Some "protocol-order" -> incr by_order
      | Some label
        when String.length label > 8
             && String.sub label (String.length label - 8) 8 = " monitor" ->
          incr by_monitor
      | other ->
          Alcotest.failf "%s: checked by %s, not by its monitor or its order"
            v.label
            (Option.value other ~default:"nothing")))
    cells;
  (* both stages carry part of the grid *)
  Alcotest.(check bool) "some cells certified by a monitor" true
    (!by_monitor > 0);
  Alcotest.(check bool) "some cells certified by their supplied order" true
    (!by_order > 0)

let test_scenarios () =
  for seed = 1 to 40 do
    agree (verdicts (Scenario.gen ~seed))
  done

(* ---------- corrupted orders ---------- *)

module R = Spec.Register
module MR = Monitor.Make (R)

let op proc inv resp a b : MR.op =
  { proc; inv; resp; inv_time = Rat.of_int a; resp_time = Rat.of_int b }

let refused name history order expected =
  match MR.verify_order (Array.of_list history) order with
  | Ok _ -> Alcotest.failf "%s: corrupted order accepted" name
  | Error f ->
      Alcotest.(check bool) (name ^ ": named reason") true (f = expected)

(* write 1; write 2; read -> 2, one after another in real time *)
let sequential =
  [
    op 0 (R.Write 1) R.Ack 0 1;
    op 1 (R.Write 2) R.Ack 2 3;
    op 2 R.Read (R.Value 2) 4 5;
  ]

let test_accepts_the_true_order () =
  match MR.verify_order (Array.of_list sequential) [| 0; 1; 2 |] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "the real-time order was refused"

let test_dropped () =
  refused "index dropped" sequential [| 0; 2 |] (Monitor.Dropped 1)

let test_duplicated () =
  refused "index duplicated" sequential [| 0; 1; 1; 2 |] (Monitor.Duplicated 1)

let test_out_of_range () =
  refused "index out of range" sequential [| 0; 1; 3 |] (Monitor.Out_of_range 3)

(* Two reads of the initial value, the first responding before the
   second is invoked: swapping them still replays, so only the
   real-time test can refuse it. *)
let test_swapped () =
  refused "real-time pair swapped"
    [ op 0 R.Read (R.Value 0) 0 1; op 1 R.Read (R.Value 0) 2 3 ]
    [| 1; 0 |]
    (Monitor.Real_time_inversion { first = 1; second = 0 })

(* The read returns the first write's value after the second write:
   it does not replay, and it would without the second write — the
   operation it was answered without. *)
let test_replay () =
  let read v =
    List.mapi
      (fun i o -> if i = 2 then { o with Sim.Trace.resp = R.Value v } else o)
      sequential
  in
  refused "response does not replay" (read 1) [| 0; 1; 2 |]
    (Monitor.Replay_mismatch { op = 2; overtook = Some 1 });
  refused "response no prefix explains" (read 7) [| 0; 1; 2 |]
    (Monitor.Replay_mismatch { op = 2; overtook = None })

let () =
  Alcotest.run "oracles"
    [
      ( "three oracles agree",
        [
          Alcotest.test_case "reference grid, seed 1" `Quick (test_grid 1);
          Alcotest.test_case "reference grid, seed 2" `Quick (test_grid 2);
          Alcotest.test_case "40-scenario batch" `Quick test_scenarios;
        ] );
      ( "verifier refuses corrupted orders",
        [
          Alcotest.test_case "true order accepted" `Quick
            test_accepts_the_true_order;
          Alcotest.test_case "index dropped" `Quick test_dropped;
          Alcotest.test_case "index duplicated" `Quick test_duplicated;
          Alcotest.test_case "index out of range" `Quick test_out_of_range;
          Alcotest.test_case "real-time pair swapped" `Quick test_swapped;
          Alcotest.test_case "response does not replay" `Quick test_replay;
        ] );
    ]
