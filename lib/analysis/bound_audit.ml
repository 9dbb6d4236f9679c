(** Pass 3 — bound_audit: statically verify the generated bound tables
    (paper Tables 1-5) before anything is measured against them.

    Two families of checks:

    - {e numeric consistency}, over a grid of model parameters
      [(n, d, u, eps, X)]: in every row the new lower bound must not
      exceed the new upper bound ([bounds.lb-gt-ub]) and must not
      regress below the previous lower bound ([bounds.lb-regression]);

    - {e theorem applicability}: a row may only cite a theorem whose
      hypothesis actually holds for that operation {e as discovered by
      the classification searches} — Thm. 2 needs a pure accessor,
      Thm. 3 last-sensitivity, Thm. 4 pair-freedom, Thm. 5 the
      transposability + discriminator hypotheses for the (OP, AOP)
      pair ([bounds.thmN-precondition]).  This is the link that keeps
      the tables honest against the specs: change a data type so an
      operation stops being last-sensitive and its Thm. 3 row fails
      here, not in a simulation six layers later.

    Preconditions are model-independent and checked once per table;
    numeric consistency is checked at every grid point. *)

type verdicts = {
  pure_accessor : string -> bool;
  last_sensitive : string -> bool;
  pair_free : string -> bool;
  thm5 : op:string -> aop:string -> bool;
}

type packed_spec =
  | Packed :
      (module Spec.Data_type.S
         with type state = 's
          and type invocation = 'i
          and type response = 'r)
      * 'i list list
      -> packed_spec

let verdicts_of (Packed ((module T), extra)) =
  let module C = Spec.Classify.Make (T) in
  let u = C.default_universe ~extra () in
  {
    pure_accessor =
      (fun op -> C.discovered_kind u op = Some Spec.Op_kind.Pure_accessor);
    last_sensitive =
      (fun op -> C.is_last_sensitive u ~k:2 op || C.is_last_sensitive u ~k:3 op);
    pair_free = (fun op -> C.is_pair_free u op);
    thm5 = (fun ~op ~aop -> C.thm5_hypotheses u ~op ~aop);
  }

type binding = {
  label : string;
  table_of : Sim.Model.t -> x:Rat.t -> Bounds.Tables.table;
  verdicts : verdicts option;
      (** [None] for the class-level summary table, whose rows name
          operation classes rather than operations of one type *)
}

let bindings () =
  [
    {
      label = "table1-rmw-register";
      table_of = Bounds.Tables.rmw_register;
      verdicts = Some (verdicts_of (Packed ((module Spec.Rmw_register), [])));
    };
    {
      label = "table2-queue";
      table_of = Bounds.Tables.queue;
      verdicts = Some (verdicts_of (Packed ((module Spec.Fifo_queue), [])));
    };
    {
      label = "table3-stack";
      table_of = Bounds.Tables.stack;
      verdicts = Some (verdicts_of (Packed ((module Spec.Stack_type), [])));
    };
    {
      label = "table4-tree";
      table_of = Bounds.Tables.tree;
      verdicts =
        Some
          (verdicts_of
             (Packed
                ( (module Spec.Tree_type),
                  Spec.Tree_type.classification_contexts )));
    };
    {
      label = "table5-summary";
      table_of = Bounds.Tables.summary;
      verdicts = None;
    };
  ]

(* Grid of audited model parameters.  eps stays at or above the
   synchronization-achievable optimum (1 - 1/n)u: the lower-bound
   theorems quantify over systems whose clocks are actually
   synchronizable to eps, and below that the shifting arguments (and
   hence the table rows) do not apply. *)
let default_grid () =
  let shapes = [ (2, 12, 4); (3, 12, 4); (5, 12, 4); (3, 10, 10); (4, 30, 1) ] in
  List.concat_map
    (fun (n, d, u) ->
      let d = Rat.of_int d and u = Rat.of_int u in
      let optimal_eps = Rat.mul u (Rat.make (n - 1) n) in
      List.concat_map
        (fun eps ->
          let model = Sim.Model.make ~n ~d ~u ~eps in
          let x_max = Rat.sub d eps in
          List.map
            (fun x -> (model, x))
            [ Rat.zero; Rat.div_int x_max 2; x_max ])
        [ optimal_eps; u ])
    shapes

let precondition_findings b =
  match b.verdicts with
  | None -> []
  | Some v ->
      (* Row names and lower-bound sources are model-independent; any
         valid parameter point serves to enumerate them. *)
      let model = Sim.Model.make_optimal_eps ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4) in
      let x = Rat.div_int (Rat.sub model.d model.eps) 2 in
      let table = b.table_of model ~x in
      List.concat_map
        (fun (row : Bounds.Tables.row) ->
          match row.new_lb with
          | None -> []
          | Some lb -> (
              let subject = b.label ^ "/" ^ row.operation in
              let ops =
                List.filter_map
                  (function
                    | Bounds.Tables.Op op -> Some op
                    | Bounds.Tables.Class _ -> None)
                  row.measures
              in
              let verdict_and_hypothesis =
                match (lb.source, ops) with
                | "Thm. 2", [ op ] ->
                    Some (v.pure_accessor op, "a pure accessor")
                | "Thm. 3", [ op ] ->
                    Some (v.last_sensitive op, "last-sensitive")
                | "Thm. 4", [ op ] -> Some (v.pair_free op, "pair-free")
                | "Thm. 5", [ op; aop ] ->
                    Some
                      ( v.thm5 ~op ~aop,
                        "a transposable/discriminating (OP, AOP) pair" )
                | _ -> None
              in
              match verdict_and_hypothesis with
              | None ->
                  [
                    Diagnostic.warning ~rule:"bounds.unknown-source" ~subject
                      (Printf.sprintf
                         "lower bound cites %S, which this auditor cannot \
                          map to a checkable hypothesis"
                         lb.source);
                  ]
              | Some (true, _) ->
                  [
                    Diagnostic.info ~rule:"bounds.precondition-ok" ~subject
                      (Printf.sprintf "%s hypothesis confirmed for %s"
                         lb.source
                         (String.concat " + " ops));
                  ]
              | Some (false, hypothesis) ->
                  [
                    Diagnostic.error
                      ~rule:
                        (Printf.sprintf "bounds.thm%c-precondition"
                           lb.source.[String.length lb.source - 1])
                      ~subject
                      (Printf.sprintf
                         "row cites %s, but %s is not %s according to the \
                          audited classification"
                         lb.source
                         (String.concat " + " ops)
                         hypothesis);
                  ]))
        table.rows

let show_point (model : Sim.Model.t) x =
  Format.asprintf "%a, X = %a" Sim.Model.pp model Rat.pp x

let consistency_findings b (model, x) =
  let table = b.table_of model ~x in
  List.concat_map
    (fun (row : Bounds.Tables.row) ->
      let subject = b.label ^ "/" ^ row.operation in
      let lb_gt_ub =
        match row.new_lb with
        | Some lb when Rat.gt lb.value row.new_ub.value ->
            [
              Diagnostic.error ~rule:"bounds.lb-gt-ub" ~subject
                ~witness:
                  (Printf.sprintf "%s: LB %s = %s > UB %s = %s"
                     (show_point model x) lb.formula
                     (Rat.to_string lb.value) row.new_ub.formula
                     (Rat.to_string row.new_ub.value))
                "lower bound exceeds upper bound";
            ]
        | _ -> []
      in
      let regression =
        match (row.prev_lb, row.new_lb) with
        | Some prev, Some lb when Rat.lt lb.value prev.value ->
            [
              Diagnostic.error ~rule:"bounds.lb-regression" ~subject
                ~witness:
                  (Printf.sprintf "%s: new LB %s = %s < previous LB %s = %s"
                     (show_point model x) lb.formula
                     (Rat.to_string lb.value) prev.formula
                     (Rat.to_string prev.value))
                "new lower bound is below the previously known one";
            ]
        | _ -> []
      in
      lb_gt_ub @ regression)
    table.rows

let run ?(grid = default_grid ()) () =
  let bindings = bindings () in
  let preconditions = List.concat_map precondition_findings bindings in
  let consistency =
    List.concat_map
      (fun b -> List.concat_map (consistency_findings b) grid)
      bindings
  in
  let summary =
    Diagnostic.info ~rule:"bounds.audited" ~subject:"tables"
      (Printf.sprintf "checked %d tables at %d parameter points"
         (List.length bindings) (List.length grid))
  in
  preconditions @ consistency @ [ summary ]
