(* Classification tests: the executable taxonomy must discover exactly
   the algebraic classes the paper's tables claim for every operation
   of every bundled data type (the content of Figure 11). *)

module type CASE = sig
  include Spec.Data_type.S

  val extra_contexts : invocation list list
end

let check_flags (module T : CASE)
    ~(expect :
       (string
       * Spec.Op_kind.t
       * [ `Transposable of bool ]
       * [ `Last_sensitive of bool ]
       * [ `Pair_free of bool ]
       * [ `Overwriter of bool ])
       list) () =
  let module C = Spec.Classify.Make (T) in
  let u = C.default_universe ~extra:T.extra_contexts () in
  List.iter
    (fun (op, kind, `Transposable tr, `Last_sensitive ls, `Pair_free pf,
          `Overwriter ow) ->
      let name fact = Printf.sprintf "%s.%s %s" T.name op fact in
      Alcotest.(check bool)
        (name "declared kind")
        true
        (List.assoc op T.operations = kind);
      (match C.discovered_kind u op with
      | Some discovered ->
          Alcotest.(check bool)
            (name "discovered kind matches declared")
            true
            (Spec.Op_kind.equal discovered kind)
      | None -> Alcotest.failf "%s: no kind discovered" op);
      Alcotest.(check bool) (name "transposable") tr (C.is_transposable u op);
      Alcotest.(check bool)
        (name "last-sensitive (k=2)")
        ls
        (C.is_last_sensitive u ~k:2 op);
      Alcotest.(check bool) (name "pair-free") pf (C.is_pair_free u op);
      Alcotest.(check bool) (name "overwriter") ow (C.is_overwriter u op))
    expect

module Register_case = struct
  include Spec.Register

  let extra_contexts = []
end

module Rmw_case = struct
  include Spec.Rmw_register

  let extra_contexts = []
end

module Queue_case = struct
  include Spec.Fifo_queue

  let extra_contexts = []
end

module Stack_case = struct
  include Spec.Stack_type

  let extra_contexts = []
end

module Tree_case = struct
  include Spec.Tree_type

  let extra_contexts = classification_contexts
end

module Set_case = struct
  include Spec.Set_type

  let extra_contexts = []
end

module Counter_case = struct
  include Spec.Counter_type

  let extra_contexts = []
end

module Pq_case = struct
  include Spec.Priority_queue

  let extra_contexts = []
end

module Log_case = struct
  include Spec.Log_type

  let extra_contexts = []
end

let yes = true and no = false

let register_expect =
  [
    ( "read",
      Spec.Op_kind.Pure_accessor,
      (* vacuously transposable: a single distinct instance *)
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "write",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter yes );
  ]

let rmw_expect =
  [
    ( "read",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "write",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter yes );
    (* rmw reveals the whole pre-state in its response, so any context
       in which the same instance stays legal leaves an identical
       state: formally an overwriter. *)
    ( "rmw",
      Spec.Op_kind.Mixed,
      `Transposable no,
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter yes );
  ]

let queue_expect =
  [
    ( "enqueue",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter no );
    (* dequeue takes no argument, so no two distinct instances are
       ever legal after the same context: vacuously transposable. *)
    ( "dequeue",
      Spec.Op_kind.Mixed,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter no );
    ( "peek",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
  ]

let stack_expect =
  [
    ( "push",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter no );
    ( "pop",
      Spec.Op_kind.Mixed,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter no );
    ( "peek",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
  ]

let tree_expect =
  [
    ( "insert",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter no );
    ( "delete",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter no );
    ( "depth",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "last-removed",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
  ]

let set_expect =
  [
    (* add/remove commute: pure mutators that are NOT last-sensitive —
       the negative control for Theorem 3's hypothesis. *)
    ( "add",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "remove",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "contains",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "extract-min",
      Spec.Op_kind.Mixed,
      `Transposable yes,
      (* only one distinct instance exists, so both searches that need
         two or more distinct instances are vacuous/false *)
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter no );
  ]

let counter_expect =
  [
    ( "add",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "read",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    (* argument-less (vacuously transposable) and state-revealing
       (formally an overwriter), like rmw above. *)
    ( "fetch-and-increment",
      Spec.Op_kind.Mixed,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter yes );
  ]

let pq_expect =
  [
    (* insert commutes (multiset): pure mutator, NOT last-sensitive. *)
    ( "insert",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "extract-max",
      Spec.Op_kind.Mixed,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter no );
    ( "find-max",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
  ]

let log_expect =
  [
    (* append fully records order: the canonical last-sensitive op. *)
    ( "append",
      Spec.Op_kind.Pure_mutator,
      `Transposable yes,
      `Last_sensitive yes,
      `Pair_free no,
      `Overwriter no );
    ( "last",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "length",
      Spec.Op_kind.Pure_accessor,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free no,
      `Overwriter no );
    ( "trim",
      Spec.Op_kind.Mixed,
      `Transposable yes,
      `Last_sensitive no,
      `Pair_free yes,
      `Overwriter no );
  ]

(* Last-sensitivity with k = 3 for the operations the paper applies
   Theorem 3 to with k = n. *)
let test_last_sensitive_k3 () =
  let check (module T : CASE) op expected =
    let module C = Spec.Classify.Make (T) in
    let u = C.default_universe ~extra:T.extra_contexts () in
    Alcotest.(check bool)
      (Printf.sprintf "%s.%s last-sensitive k=3" T.name op)
      expected
      (C.is_last_sensitive u ~k:3 op)
  in
  check (module Register_case) "write" true;
  check (module Queue_case) "enqueue" true;
  check (module Stack_case) "push" true;
  check (module Tree_case) "insert" true;
  check (module Tree_case) "delete" true;
  check (module Set_case) "add" false;
  check (module Counter_case) "add" false;
  check (module Log_case) "append" true;
  check (module Pq_case) "insert" false

(* Theorem 5's discriminator hypotheses: hold for enqueue+peek and for
   the tree pairs, fail for push+peek (the paper's §4.3 remark) and for
   write+read (write is an overwriter). *)
let test_thm5_hypotheses () =
  let check (module T : CASE) ~op ~aop expected =
    let module C = Spec.Classify.Make (T) in
    let u = C.default_universe ~extra:T.extra_contexts () in
    Alcotest.(check bool)
      (Printf.sprintf "%s: thm5(%s, %s)" T.name op aop)
      expected
      (C.thm5_hypotheses u ~op ~aop)
  in
  check (module Queue_case) ~op:"enqueue" ~aop:"peek" true;
  check (module Stack_case) ~op:"push" ~aop:"peek" false;
  check (module Register_case) ~op:"write" ~aop:"read" false;
  check (module Tree_case) ~op:"insert" ~aop:"depth" true;
  check (module Tree_case) ~op:"delete" ~aop:"depth" true;
  (* append+last on a log behaves like push+peek on a stack: the
     accessor depends only on the last append, so no discriminator
     distinguishes rho.op0 from rho.op1.op0 ... *)
  check (module Log_case) ~op:"append" ~aop:"last" false;
  (* length, however, discriminates every required pair — each compares
     a sequence with k appends against one with k+1 appends — so
     Theorem 5 applies to append+length even though it fails for
     append+last. *)
  check (module Log_case) ~op:"append" ~aop:"length" true

(* The interference relation of §6.1: the pairs the paper's Tables
   give a prior sum bound of d all interfere; pure-mutator pairs and
   accessor-led pairs do not. *)
let test_interference () =
  let check (module T : CASE) ~op1 ~op2 expected =
    let module C = Spec.Classify.Make (T) in
    let u = C.default_universe ~extra:T.extra_contexts () in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s interferes with %s" T.name op1 op2)
      expected
      (C.interferes u ~op1 ~op2)
  in
  check (module Register_case) ~op1:"write" ~op2:"read" true;
  check (module Queue_case) ~op1:"enqueue" ~op2:"peek" true;
  check (module Queue_case) ~op1:"enqueue" ~op2:"dequeue" true;
  check (module Stack_case) ~op1:"push" ~op2:"peek" true;
  check (module Tree_case) ~op1:"insert" ~op2:"depth" true;
  check (module Tree_case) ~op1:"delete" ~op2:"depth" true;
  (* Acknowledge-only second operations never interfere. *)
  check (module Register_case) ~op1:"write" ~op2:"write" false;
  check (module Queue_case) ~op1:"enqueue" ~op2:"enqueue" false;
  (* Pure accessors never interfere with anything. *)
  check (module Register_case) ~op1:"read" ~op2:"read" false;
  check (module Queue_case) ~op1:"peek" ~op2:"dequeue" false

(* Lemma 3: every pair-free operation is both an accessor and a
   mutator. *)
let test_lemma3 () =
  let check (module T : CASE) =
    let module C = Spec.Classify.Make (T) in
    let u = C.default_universe ~extra:T.extra_contexts () in
    List.iter
      (fun (op, _) ->
        if C.is_pair_free u op then
          Alcotest.(check bool)
            (Printf.sprintf "%s.%s pair-free => mixed" T.name op)
            true
            (C.is_mutator u op && C.is_accessor u op))
      T.operations
  in
  check (module Register_case);
  check (module Rmw_case);
  check (module Queue_case);
  check (module Stack_case);
  check (module Tree_case);
  check (module Set_case);
  check (module Counter_case);
  check (module Pq_case);
  check (module Log_case)

(* Figure 11 containments: last-sensitive => mutator; overwriter =>
   mutator; pair-free => mutator and accessor. *)
let test_figure11_containments () =
  let check (module T : CASE) =
    let module C = Spec.Classify.Make (T) in
    let u = C.default_universe ~extra:T.extra_contexts () in
    List.iter
      (fun (r : Spec.Classify.op_report) ->
        let ctx fact = Printf.sprintf "%s.%s %s" T.name r.op fact in
        if r.last_sensitive2 || r.last_sensitive3 then
          Alcotest.(check bool)
            (ctx "last-sensitive => mutator")
            true r.discovered_mutator;
        if r.overwriter then
          Alcotest.(check bool) (ctx "overwriter => mutator") true
            r.discovered_mutator;
        if r.pair_free then
          Alcotest.(check bool)
            (ctx "pair-free => mutator & accessor")
            true
            (r.discovered_mutator && r.discovered_accessor))
      (C.report u)
  in
  check (module Register_case);
  check (module Rmw_case);
  check (module Queue_case);
  check (module Stack_case);
  check (module Tree_case);
  check (module Set_case);
  check (module Counter_case);
  check (module Pq_case);
  check (module Log_case)

let () =
  Alcotest.run "classify"
    [
      ( "per-type flags",
        [
          Alcotest.test_case "register" `Quick
            (check_flags (module Register_case) ~expect:register_expect);
          Alcotest.test_case "rmw register" `Quick
            (check_flags (module Rmw_case) ~expect:rmw_expect);
          Alcotest.test_case "queue" `Quick
            (check_flags (module Queue_case) ~expect:queue_expect);
          Alcotest.test_case "stack" `Quick
            (check_flags (module Stack_case) ~expect:stack_expect);
          Alcotest.test_case "tree" `Quick
            (check_flags (module Tree_case) ~expect:tree_expect);
          Alcotest.test_case "set" `Quick
            (check_flags (module Set_case) ~expect:set_expect);
          Alcotest.test_case "counter" `Quick
            (check_flags (module Counter_case) ~expect:counter_expect);
          Alcotest.test_case "priority queue" `Quick
            (check_flags (module Pq_case) ~expect:pq_expect);
          Alcotest.test_case "log" `Quick
            (check_flags (module Log_case) ~expect:log_expect);
        ] );
      ( "theorem hypotheses",
        [
          Alcotest.test_case "last-sensitive k=3" `Quick test_last_sensitive_k3;
          Alcotest.test_case "thm5 discriminators" `Quick test_thm5_hypotheses;
          Alcotest.test_case "interference (sec 6.1)" `Quick test_interference;
          Alcotest.test_case "lemma 3" `Quick test_lemma3;
          Alcotest.test_case "figure 11 containments" `Quick
            test_figure11_containments;
        ] );
    ]
