(* Static-analysis tests: every bundled data type must come out of all
   passes with zero error findings, and deliberately broken fixtures
   (mis-declared Op_kind, non-deterministic apply, non-canonical
   show_state, a respond that disagrees with apply) must be flagged
   with concrete witnesses. *)

(* Plain substring search (no Str dependency). *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let has ?(with_witness = false) ~rule ~subject_sub findings =
  List.exists
    (fun (d : Analysis.Diagnostic.t) ->
      String.equal d.rule rule
      && contains ~sub:subject_sub d.subject
      && ((not with_witness) || Option.is_some d.witness))
    findings

let errors findings =
  List.filter
    (fun (d : Analysis.Diagnostic.t) -> d.severity = Analysis.Diagnostic.Error)
    findings

let pp_errors findings =
  String.concat "\n"
    (List.map
       (fun d -> Format.asprintf "%a" Analysis.Diagnostic.pp d)
       (errors findings))

(* ---------- all bundled types are clean ---------- *)

let test_bundled_types_clean () =
  List.iter
    (fun pt ->
      let findings = Analysis.Auditor.audit (Scenario.Packed_type.modl pt) in
      Alcotest.(check int)
        (Printf.sprintf "%s: zero analysis errors\n%s"
           (Scenario.Packed_type.key pt)
           (pp_errors findings))
        0
        (List.length (errors findings)))
    Scenario.Packed_type.all

(* The audit covers the very instances the pipelines run: each key's
   findings name its packed module's [T.name], and the whole audit
   visits the types in [Packed_type.all]'s order. *)
let test_audited_types_are_the_pipelines () =
  let explored findings =
    List.filter_map
      (fun (d : Analysis.Diagnostic.t) ->
        if String.equal d.rule "spec.explored" then Some d.subject else None)
      findings
  in
  let per_key =
    List.map
      (fun pt ->
        ( Scenario.Packed_type.key pt,
          Analysis.Auditor.audit (Scenario.Packed_type.modl pt) ))
      Scenario.Packed_type.all
  in
  Alcotest.(check (list (pair string (list string))))
    "each key audits its own T.name"
    (List.map
       (fun pt ->
         (Scenario.Packed_type.key pt, [ Scenario.Packed_type.spec_name pt ]))
       Scenario.Packed_type.all)
    (List.map (fun (key, findings) -> (key, explored findings)) per_key);
  Alcotest.(check (list string))
    "audited types, in order"
    (List.map Scenario.Packed_type.spec_name Scenario.Packed_type.all)
    (explored (Analysis.Auditor.audit_types ()));
  Alcotest.(check (list string))
    "the product is the pipelines' queue x register" [ "fifo-queue*register" ]
    (explored (List.assoc "product" per_key))

let test_bound_tables_clean () =
  let findings = Analysis.Bound_audit.run () in
  Alcotest.(check int)
    (Printf.sprintf "bound tables: zero analysis errors\n%s"
       (pp_errors findings))
    0
    (List.length (errors findings));
  (* the audit actually covered something *)
  Alcotest.(check bool)
    "preconditions were confirmed" true
    (has ~rule:"bounds.precondition-ok" ~subject_sub:"table2-queue" findings)

let test_audit_all_report () =
  let report = Analysis.Auditor.audit_all () in
  Alcotest.(check bool) "no errors" false (Analysis.Report.has_errors report);
  Alcotest.(check int) "exit code 0" 0 (Analysis.Report.exit_code report);
  let json =
    Result.get_ok
      (Core.Json.parse (Core.Json.compact (Analysis.Report.to_json report)))
  in
  let findings =
    Option.get Core.Json.(to_list (member "findings" json))
  in
  Alcotest.(check int) "json has every finding"
    (List.length (Analysis.Report.findings report))
    (List.length findings);
  Alcotest.(check bool)
    "json records severities" true
    (List.exists
       (fun f -> Core.Json.(to_str (member "severity" f)) = Some "info")
       findings);
  Alcotest.(check (option int)) "json counts errors" (Some 0)
    Core.Json.(to_int (member "errors" json))

(* ---------- the broken fixture ---------- *)

(* Everything §2.1 forbids in one spec: [bump] is declared a pure
   accessor but increments the state; [noise] answers through a mutable
   counter ([apply] non-deterministic); [show_state] renders every
   state identically (memo-table poison). *)
module Broken = struct
  type state = int
  type invocation = Bump | Noise | Probe
  type response = Ack | Val of int

  let name = "broken-fixture"
  let initial = 0
  let nondet = ref 0

  let apply s = function
    | Bump -> (s + 1, Ack)
    | Noise ->
        incr nondet;
        (s, Val !nondet)
    | Probe -> (s, Val s)

  let respond s inv = snd (apply s inv)

  let op_of = function Bump -> "bump" | Noise -> "noise" | Probe -> "probe"

  let operations =
    [
      ("bump", Spec.Op_kind.Pure_accessor);
      ("noise", Spec.Op_kind.Pure_accessor);
      ("probe", Spec.Op_kind.Pure_accessor);
    ]

  let equal_state = Int.equal
  let equal_invocation (a : invocation) b = a = b
  let equal_response (a : response) b = a = b
  let show_state _ = "opaque"
  let pp_state ppf s = Format.fprintf ppf "%d" s

  let pp_invocation ppf inv =
    Format.pp_print_string ppf
      (match inv with Bump -> "Bump" | Noise -> "Noise" | Probe -> "Probe")

  let pp_response ppf = function
    | Ack -> Format.pp_print_string ppf "Ack"
    | Val v -> Format.fprintf ppf "Val %d" v

  let sample_invocations = function
    | "bump" -> [ Bump ]
    | "noise" -> [ Noise ]
    | "probe" -> [ Probe ]
    | op -> invalid_arg ("broken-fixture: unknown operation " ^ op)

  let classification_contexts = []

  let gen_invocation rng =
    match Random.State.int rng 3 with 0 -> Bump | 1 -> Noise | _ -> Probe

  let gen_tagged rng ~tag:_ = gen_invocation rng

  let monitor = None
end

let test_broken_spec_lint () =
  let module L = Analysis.Spec_lint.Make (Broken) in
  let findings = L.run () in
  Alcotest.(check bool)
    "non-deterministic apply flagged with witness" true
    (has ~with_witness:true ~rule:"spec.determinism" ~subject_sub:"noise"
       findings);
  Alcotest.(check bool)
    "show_state collision flagged with witness" true
    (has ~with_witness:true ~rule:"spec.show-state-collision"
       ~subject_sub:"broken-fixture" findings)

let test_broken_class_audit () =
  let module A = Analysis.Class_audit.Make (Broken) in
  let findings = A.run () in
  Alcotest.(check bool)
    "mis-declared bump flagged with witness" true
    (has ~with_witness:true ~rule:"class.kind-mismatch" ~subject_sub:"bump"
       findings);
  (* the witness names the state-changing instance *)
  let witness =
    List.find_map
      (fun (d : Analysis.Diagnostic.t) ->
        if d.rule = "class.kind-mismatch" && contains ~sub:"bump" d.subject
        then d.witness
        else None)
      findings
  in
  Alcotest.(check bool)
    "witness mentions the Bump instance" true
    (match witness with Some w -> contains ~sub:"Bump" w | None -> false)

let test_broken_report_gates () =
  let findings =
    (let module L = Analysis.Spec_lint.Make (Broken) in
     L.run ())
    @
    let module A = Analysis.Class_audit.Make (Broken) in
    A.run ()
  in
  let report = Analysis.Report.of_findings findings in
  Alcotest.(check bool) "has errors" true (Analysis.Report.has_errors report);
  Alcotest.(check int) "exit code 1" 1 (Analysis.Report.exit_code report);
  (* errors sort first in the rendered report *)
  match Analysis.Report.findings report with
  | first :: _ ->
      Alcotest.(check bool)
        "errors lead the report" true
        (first.severity = Analysis.Diagnostic.Error)
  | [] -> Alcotest.fail "empty report"

(* The bundled queue with an answer that skips the state: [respond]
   reads every queue as empty, so its dequeues and peeks disagree with
   [apply] once something is enqueued, while [apply] itself is sound. *)
module Answer_from_empty = struct
  include Spec.Fifo_queue

  let respond _ = function
    | Enqueue _ -> Ack
    | Dequeue | Peek -> Got None
end

let test_respond_disagrees () =
  let module L = Analysis.Spec_lint.Make (Answer_from_empty) in
  let findings = L.run () in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (op ^ ": respond disagreement flagged with witness")
        true
        (has ~with_witness:true ~rule:"spec.respond-disagrees"
           ~subject_sub:op findings))
    [ "dequeue"; "peek" ];
  Alcotest.(check bool)
    "enqueue's answer agrees" false
    (has ~rule:"spec.respond-disagrees" ~subject_sub:"enqueue" findings);
  Alcotest.(check (list string))
    "the only error rule"
    [ "spec.respond-disagrees" ]
    (List.sort_uniq String.compare
       (List.map (fun (d : Analysis.Diagnostic.t) -> d.rule) (errors findings)))

(* ---------- monitor audit ---------- *)

(* The bundled queue viewer, re-declared as a stack: the discipline
   probe must refute the lie with the concrete replay as witness. *)
module Lying_queue = struct
  include Spec.Fifo_queue

  let monitor =
    Option.map
      (fun vw -> { vw with Spec.Adt_view.kind = Spec.Adt_view.Stack })
      monitor
end

let test_monitor_audit_verified () =
  let module MA = Analysis.Monitor_audit.Make (Spec.Fifo_queue) in
  let findings = MA.run () in
  Alcotest.(check bool)
    "queue viewer confirmed" true
    (has ~rule:"monitor.verified" ~subject_sub:"fifo-queue" findings)

let test_monitor_audit_lying_kind () =
  let module MA = Analysis.Monitor_audit.Make (Lying_queue) in
  let findings = MA.run () in
  Alcotest.(check bool)
    "mis-declared kind refuted with a replay witness" true
    (has ~with_witness:true ~rule:"monitor.kind-witness"
       ~subject_sub:"fifo-queue" findings);
  Alcotest.(check bool)
    "no false verification" false
    (has ~rule:"monitor.verified" ~subject_sub:"fifo-queue" findings)

let test_monitor_audit_unmonitored () =
  let module MA = Analysis.Monitor_audit.Make (Spec.Counter_type) in
  let findings = MA.run () in
  Alcotest.(check bool)
    "unmonitored type reported as wing-gong-only" true
    (has ~rule:"monitor.none" ~subject_sub:"counter" findings);
  Alcotest.(check int) "and nothing else" 1 (List.length findings)

(* ---------- renderer escaping ---------- *)

let test_json_escaping () =
  let d =
    Analysis.Diagnostic.error ~rule:"x.y" ~subject:"s"
      ~witness:"quote \" backslash \\ newline \n tab \t"
      "m"
  in
  let json = Core.Json.compact (Analysis.Diagnostic.to_json d) in
  Alcotest.(check bool) "no raw newline" false (contains ~sub:"\n" json);
  let witness =
    Result.map
      (fun j -> Core.Json.(to_str (member "witness" j)))
      (Core.Json.parse json)
  in
  Alcotest.(check bool) "witness reads back" true (witness = Ok d.witness)

let () =
  Alcotest.run "analysis"
    [
      ( "clean on bundled artifacts",
        [
          Alcotest.test_case "all ten data types" `Quick
            test_bundled_types_clean;
          Alcotest.test_case "audited types are the pipelines' types" `Quick
            test_audited_types_are_the_pipelines;
          Alcotest.test_case "bound tables" `Quick test_bound_tables_clean;
          Alcotest.test_case "aggregate report + json" `Quick
            test_audit_all_report;
        ] );
      ( "monitor audit",
        [
          Alcotest.test_case "bundled queue viewer verified" `Quick
            test_monitor_audit_verified;
          Alcotest.test_case "lying kind refuted" `Quick
            test_monitor_audit_lying_kind;
          Alcotest.test_case "unmonitored type is info-only" `Quick
            test_monitor_audit_unmonitored;
        ] );
      ( "broken fixture is flagged",
        [
          Alcotest.test_case "spec lint: determinism, show_state" `Quick
            test_broken_spec_lint;
          Alcotest.test_case "class audit: kind mismatch witness" `Quick
            test_broken_class_audit;
          Alcotest.test_case "report gates (exit 1, errors first)" `Quick
            test_broken_report_gates;
          Alcotest.test_case "spec lint: respond disagrees with apply" `Quick
            test_respond_disagrees;
        ] );
      ( "renderers",
        [ Alcotest.test_case "json escaping" `Quick test_json_escaping ] );
    ]
