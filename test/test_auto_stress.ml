(* End-to-end pipeline: the classifier EXTRACTS the algebraic witnesses
   (context + instances) for each theorem's hypotheses, and the stress
   harness replays the corresponding proof construction against the
   real algorithm — fully automatically, for every data type that has
   an operation of the right class. *)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1)
let x_param = rat 2 1

module Auto (T : Spec.Data_type.S) = struct
  module C = Spec.Classify.Make (T)
  module S = Bounds.Stress.Make (T)

  (* For every last-sensitive operation: derive (rho, instances) and
     run the Theorem 3 scenario for each z. *)
  let theorem3 () =
    let u = C.default_universe () in
    List.concat_map
      (fun (op, _) ->
        match C.find_last_sensitive_witness u ~k:3 op with
        | None -> []
        | Some (rho, instances) ->
            List.map
              (fun z ->
                let outcome =
                  S.theorem3 ~model ~x_param ~k:3 ~z ~rho ~instances ()
                in
                (op, z, S.ok outcome))
              [ 0; 1; 2 ])
      T.operations

  (* For every pair-free operation: derive (rho, op-instances) and run
     the Theorem 4 scenario. *)
  let theorem4 () =
    let u = C.default_universe () in
    List.filter_map
      (fun (op, _) ->
        match C.find_pair_free_witness u op with
        | None -> None
        | Some (rho, op0, op1) ->
            let outcome = S.theorem4 ~model ~x_param ~rho ~op0 ~op1 () in
            Some (op, S.ok outcome))
      T.operations

  (* For every (transposable mutator, pure accessor) pair satisfying
     Theorem 5: derive the full witness and run the scenario. *)
  let theorem5 () =
    let u = C.default_universe () in
    List.concat_map
      (fun (op, kind) ->
        if not (Spec.Op_kind.is_mutator kind) then []
        else
          List.filter_map
            (fun (aop, akind) ->
              if akind <> Spec.Op_kind.Pure_accessor then None
              else
                match C.find_thm5_witness u ~op ~aop with
                | None -> None
                | Some (rho, op0, op1, a0, a1, a2) ->
                    let outcome =
                      S.theorem5 ~model ~x_param ~rho ~op0 ~op1 ~aop0:a0
                        ~aop1:a1 ~aop2:a2 ()
                    in
                    Some ((op, aop), S.ok outcome))
            T.operations)
      T.operations
end

let check_type name (module T : Spec.Data_type.S) ~expect_thm3 ~expect_thm4
    ~expect_thm5 () =
  let module A = Auto (T) in
  let thm3 = A.theorem3 () in
  Alcotest.(check int)
    (name ^ ": thm3 scenarios derived")
    expect_thm3 (List.length thm3);
  List.iter
    (fun (op, z, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: thm3 %s z=%d survives" name op z)
        true ok)
    thm3;
  let thm4 = A.theorem4 () in
  Alcotest.(check int)
    (name ^ ": thm4 scenarios derived")
    expect_thm4 (List.length thm4);
  List.iter
    (fun (op, ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: thm4 %s survives" name op)
        true ok)
    thm4;
  let thm5 = A.theorem5 () in
  Alcotest.(check int)
    (name ^ ": thm5 scenarios derived")
    expect_thm5 (List.length thm5);
  List.iter
    (fun ((op, aop), ok) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: thm5 (%s, %s) survives" name op aop)
        true ok)
    thm5

(* Expected scenario counts per type: thm3 = 3 z-values per
   last-sensitive op; thm4 = one per pair-free op; thm5 = one per
   (mutator, accessor) pair satisfying the hypotheses. *)
let () =
  Alcotest.run "auto_stress"
    [
      ( "auto-derived scenarios",
        [
          Alcotest.test_case "register" `Quick
            (check_type "register" (module Spec.Register) ~expect_thm3:3
               ~expect_thm4:0 ~expect_thm5:0);
          Alcotest.test_case "rmw-register" `Quick
            (check_type "rmw-register" (module Spec.Rmw_register)
               ~expect_thm3:3 ~expect_thm4:1 ~expect_thm5:0);
          Alcotest.test_case "queue" `Quick
            (check_type "queue" (module Spec.Fifo_queue) ~expect_thm3:3
               ~expect_thm4:1 ~expect_thm5:1);
          Alcotest.test_case "stack" `Quick
            (check_type "stack" (module Spec.Stack_type) ~expect_thm3:3
               ~expect_thm4:1 ~expect_thm5:0);
          Alcotest.test_case "tree" `Quick
            (check_type "tree" (module Spec.Tree_type)
               (* insert and delete are last-sensitive: 2 ops x 3 z *)
               ~expect_thm3:6 ~expect_thm4:0
               (* insert+depth and delete+depth; last-removed reveals
                  only the LAST deletion, so delete+last-removed has no
                  discriminator (the push+peek phenomenon) *)
               ~expect_thm5:2);
          Alcotest.test_case "log" `Quick
            (check_type "log" (module Spec.Log_type) ~expect_thm3:3
               ~expect_thm4:1 ~expect_thm5:1);
          (* Even though add/remove are NOT last-sensitive (Theorem 3
             gives the set's mutators nothing beyond u/2), Theorem 5
             does apply: contains discriminates every pair required for
             add+contains and remove+contains, so their SUM with a
             contains is still bounded below by d + m. *)
          Alcotest.test_case "set (no last-sensitive ops)" `Quick
            (check_type "set" (module Spec.Set_type) ~expect_thm3:0
               ~expect_thm4:1 ~expect_thm5:2);
        ] );
    ]
