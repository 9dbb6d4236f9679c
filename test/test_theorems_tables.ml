(* Tests for the bound formulas (Theorems 2-5, Lemma 4) and the
   regenerated Tables 1-5. *)

let rat = Rat.make
let model = Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) ~eps:(rat 3 1)
let x = rat 2 1

let eq label expected value =
  Alcotest.(check string) label expected (Rat.to_string value)

let test_slack_m () =
  (* min{eps, u, d/3} = min{3, 4, 4} = 3 here. *)
  eq "m = 3" "3" (Bounds.Theorems.slack_m model);
  (* u smallest *)
  let m2 = Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 2 1) ~eps:(rat 10 1) in
  eq "m = u when u smallest" "2" (Bounds.Theorems.slack_m m2);
  (* d/3 smallest *)
  let m3 = Sim.Model.make ~n:4 ~d:(rat 3 1) ~u:(rat 3 1) ~eps:(rat 9 1) in
  eq "m = d/3 when d/3 smallest" "1" (Bounds.Theorems.slack_m m3)

let test_lower_bounds () =
  eq "thm2 = u/4" "1" (Bounds.Theorems.thm2_pure_accessor model);
  eq "thm3 default k=n" "3" (Bounds.Theorems.thm3_last_sensitive model);
  eq "thm3 k=2" "2" (Bounds.Theorems.thm3_last_sensitive ~k:2 model);
  eq "thm4 = d+m" "15" (Bounds.Theorems.thm4_pair_free model);
  eq "thm5 = d+m" "15" (Bounds.Theorems.thm5_sum model);
  Alcotest.check_raises "thm3 k=1 rejected"
    (Invalid_argument "thm3_last_sensitive: need 2 <= k <= n") (fun () ->
      ignore (Bounds.Theorems.thm3_last_sensitive ~k:1 model));
  Alcotest.check_raises "thm3 k>n rejected"
    (Invalid_argument "thm3_last_sensitive: need 2 <= k <= n") (fun () ->
      ignore (Bounds.Theorems.thm3_last_sensitive ~k:9 model))

let test_upper_bounds () =
  eq "AOP paper claim = d-X" "10"
    (Bounds.Theorems.ub_pure_accessor_paper model ~x);
  eq "AOP repaired = d-X+eps" "13" (Bounds.Theorems.ub_pure_accessor model ~x);
  eq "MOP = X+eps" "5" (Bounds.Theorems.ub_pure_mutator model ~x);
  eq "OOP = d+eps" "15" (Bounds.Theorems.ub_mixed model);
  eq "centralized = 2d" "24" (Bounds.Theorems.ub_centralized model);
  eq "tob = d+eps" "15" (Bounds.Theorems.ub_tob model);
  Alcotest.check_raises "X out of range"
    (Invalid_argument "Theorems: X = 10 lies outside [0, d - eps] = [0, 9]")
    (fun () ->
      ignore (Bounds.Theorems.ub_pure_accessor model ~x:(rat 10 1)))

let test_monotonicity () =
  (* Thm 3 bound grows with k towards u. *)
  let values =
    List.map (fun k -> Bounds.Theorems.thm3_last_sensitive ~k model) [ 2; 3; 4 ]
  in
  let rec increasing = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> Rat.lt a b && increasing rest
  in
  Alcotest.(check bool) "thm3 increasing in k" true (increasing values);
  Alcotest.(check bool) "thm3 below u" true
    (List.for_all (fun v -> Rat.lt v model.u) values)

let test_tightness () =
  (* With eps = (1-1/n)u and X = 0, pure mutators are tight. *)
  let opt = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  Alcotest.(check bool) "optimal model detected" true
    (Bounds.Theorems.mutator_bound_tight opt);
  eq "lower = (1-1/4)u = 3" "3" (Bounds.Theorems.thm3_last_sensitive opt);
  eq "upper at X=0 = eps = 3" "3"
    (Bounds.Theorems.ub_pure_mutator opt ~x:Rat.zero);
  (* Pair-free tight when eps <= min{u, d/3}. *)
  Alcotest.(check bool) "pair-free tight here" true
    (Bounds.Theorems.pair_free_bound_tight opt);
  eq "thm4 = d+eps" "15" (Bounds.Theorems.thm4_pair_free opt);
  eq "ub mixed = d+eps" "15" (Bounds.Theorems.ub_mixed opt);
  (* Not tight when eps dominates. *)
  let loose = Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 2 1) ~eps:(rat 6 1) in
  Alcotest.(check bool) "loose model not tight" false
    (Bounds.Theorems.pair_free_bound_tight loose)

let test_tables_structure () =
  let tables = Bounds.Tables.all model ~x in
  Alcotest.(check int) "five tables" 5 (List.length tables);
  let row_counts = List.map (fun (t : Bounds.Tables.table) -> List.length t.rows) tables in
  Alcotest.(check (list int)) "row counts match paper" [ 4; 4; 4; 5; 4 ]
    row_counts

let test_tables_consistent () =
  List.iter
    (fun (t : Bounds.Tables.table) ->
      List.iter
        (fun (row : Bounds.Tables.row) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s / %s consistent" t.title row.operation)
            true
            (Bounds.Tables.inconsistencies row = []))
        t.rows)
    (Bounds.Tables.all model ~x)

(* A row that breaks both inequalities names each, in order. *)
let test_inconsistencies_named () =
  let bound v = { Bounds.Tables.formula = "f"; value = rat v 1; source = "s" } in
  let row =
    {
      Bounds.Tables.operation = "op";
      measures = [];
      prev_lb = Some (bound 5);
      new_lb = Some (bound 4);
      new_ub = bound 3;
    }
  in
  Alcotest.(check (list string))
    "above the upper bound, below the previous lower bound"
    [ "lb-gt-ub"; "lb-regression" ]
    (List.map
       (function
         | Bounds.Tables.Lb_above_ub _ -> "lb-gt-ub"
         | Lb_below_prev _ -> "lb-regression")
       (Bounds.Tables.inconsistencies row))

let test_table_values_spotcheck () =
  let find_row title_prefix opname =
    let t =
      List.find
        (fun (t : Bounds.Tables.table) ->
          String.length t.title >= String.length title_prefix
          && String.sub t.title 0 (String.length title_prefix) = title_prefix)
        (Bounds.Tables.all model ~x)
    in
    List.find (fun (r : Bounds.Tables.row) -> r.operation = opname) t.rows
  in
  let lb (r : Bounds.Tables.row) = (Option.get r.new_lb).value in
  (* Table 1: RMW lower bound d + min{eps,u,d/3}. *)
  eq "rmw LB" "15" (lb (find_row "Table 1" "read-modify-write"));
  eq "rmw UB" "15" (find_row "Table 1" "read-modify-write").new_ub.value;
  (* Table 2: enqueue LB (1-1/n)u = 3, UB X+eps = 5. *)
  eq "enqueue LB" "3" (lb (find_row "Table 2" "enqueue"));
  eq "enqueue UB" "5" (find_row "Table 2" "enqueue").new_ub.value;
  (* Table 3: push+peek has no new lower bound (Thm 5 inapplicable). *)
  Alcotest.(check bool) "push+peek no new LB" true
    ((find_row "Table 3" "push + peek").new_lb = None);
  (* Table 4: depth LB u/4 = 1, UB d-X+eps = 13. *)
  eq "depth LB" "1" (lb (find_row "Table 4" "depth"));
  eq "depth UB" "13" (find_row "Table 4" "depth").new_ub.value

let test_table_rendering () =
  let rendered =
    match Sweep.measure_tables model ~x with
    | Ok (_ :: queue :: _) -> Format.asprintf "%a" Sweep.pp_measured_table queue
    | Ok _ -> Alcotest.fail "fewer than two tables"
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun needle ->
      let contains haystack needle =
        let h = String.length haystack and n = String.length needle in
        let rec scan i =
          i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
        in
        n = 0 || scan 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "output mentions %S" needle)
        true (contains rendered needle))
    [
      "Table 2: FIFO queues"; "enqueue"; "dequeue"; "peek"; "Thm. 3"; "Thm. 4";
      "Thm. 5"; "(1-1/n)u"; "d+2eps"; "| ok";
    ]

(* A sum row adds a mutator's latency (X + eps) to an accessor's
   (d - X + eps): the repaired algorithm's bound is d + 2eps whatever X
   is, not the single-operation d + eps. *)
let test_sum_rows_bound () =
  List.iter
    (fun (t : Bounds.Tables.table) ->
      List.iter
        (fun (r : Bounds.Tables.row) ->
          if List.length r.measures = 2 then begin
            eq (t.title ^ " / " ^ r.operation ^ " UB") "18" r.new_ub.value;
            Alcotest.(check string)
              (r.operation ^ " formula") "d+2eps" r.new_ub.formula;
            Alcotest.(check string)
              (r.operation ^ " source") "Alg. 1 repaired" r.new_ub.source
          end)
        t.rows)
    (Bounds.Tables.all model ~x)

(* [repro tables] at the reference point n = 4, d = 12, u = 4, eps = 3,
   X = 3: every row's worst case, for Algorithm 1 and both baselines,
   and every verdict. *)
let test_measured_reference () =
  let tables =
    match Sweep.measure_tables model ~x:(rat 3 1) with
    | Ok tables -> tables
    | Error msg -> Alcotest.fail msg
  in
  let show = Option.fold ~none:"-" ~some:Rat.to_string in
  let expected =
    [
      ("Table 1", [ "15"; "6"; "12"; "18" ]);
      ("Table 2", [ "6"; "15"; "12"; "18" ]);
      ("Table 3", [ "6"; "15"; "12"; "18" ]);
      ("Table 4", [ "6"; "6"; "12"; "18"; "18" ]);
      ("Table 5", [ "12"; "6"; "15"; "18" ]);
    ]
  in
  Alcotest.(check int) "five tables" 5 (List.length tables);
  List.iter2
    (fun (prefix, alg1) (t : Sweep.measured_table) ->
      Alcotest.(check string)
        "table order" prefix
        (String.sub t.table.title 0 7);
      Alcotest.(check (list string))
        (prefix ^ " Algorithm 1") alg1
        (List.map (fun (m : Sweep.measured_row) -> show m.alg1) t.measured);
      List.iter
        (fun (m : Sweep.measured_row) ->
          let label = prefix ^ " / " ^ m.row.operation in
          let sum = List.length m.row.measures = 2 in
          Alcotest.(check bool) (label ^ " within bounds") true m.within;
          Alcotest.(check string) (label ^ " centralized")
            (if sum then "48" else "24") (show m.centralized);
          Alcotest.(check string) (label ^ " TOB")
            (if sum then "30" else "15") (show m.tob))
        t.measured)
    expected tables

(* Property: for random admissible parameter settings, every generated
   table row stays internally consistent. *)
let prop_tables_consistent =
  QCheck.Test.make ~name:"tables consistent across parameters" ~count:100
    QCheck.(triple (int_range 2 8) (int_range 1 20) (int_range 0 20))
    (fun (n, d_raw, u_raw) ->
      let d = rat (d_raw * 6) 1 in
      let u = rat (min (d_raw * 6) u_raw) 1 in
      let model = Sim.Model.make_optimal_eps ~n ~d ~u in
      let x_max = Rat.sub model.d model.eps in
      let x = Rat.div_int x_max 2 in
      List.for_all
        (fun (t : Bounds.Tables.table) ->
          List.for_all
            (fun row -> Bounds.Tables.inconsistencies row = [])
            t.rows)
        (Bounds.Tables.all model ~x))

let () =
  Alcotest.run "theorems_tables"
    [
      ( "theorems",
        [
          Alcotest.test_case "slack m" `Quick test_slack_m;
          Alcotest.test_case "lower bounds" `Quick test_lower_bounds;
          Alcotest.test_case "upper bounds" `Quick test_upper_bounds;
          Alcotest.test_case "monotonicity" `Quick test_monotonicity;
          Alcotest.test_case "tightness" `Quick test_tightness;
        ] );
      ( "tables",
        [
          Alcotest.test_case "structure" `Quick test_tables_structure;
          Alcotest.test_case "consistency" `Quick test_tables_consistent;
          Alcotest.test_case "inconsistencies named" `Quick
            test_inconsistencies_named;
          Alcotest.test_case "value spot checks" `Quick
            test_table_values_spotcheck;
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "sum rows bound d+2eps" `Quick test_sum_rows_bound;
          Alcotest.test_case "measured at the reference point" `Quick
            test_measured_reference;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_tables_consistent ] );
    ]
