(** Aggregated analysis report: findings from every pass, rendered for
    humans or as JSON, with the error count driving the CLI exit code
    (and therefore the CI lint gate). *)

type t = { findings : Diagnostic.t list }

(* Stable sort by severity: errors first, but findings of equal
   severity keep pass order, so related diagnostics stay adjacent. *)
let of_findings findings =
  {
    findings =
      List.stable_sort
        (fun (a : Diagnostic.t) (b : Diagnostic.t) ->
          Diagnostic.compare_severity a.severity b.severity)
        findings;
  }

let findings t = t.findings

let count severity t =
  List.length
    (List.filter (fun (d : Diagnostic.t) -> d.severity = severity) t.findings)

let errors t = count Diagnostic.Error t
let warnings t = count Diagnostic.Warning t
let has_errors t = errors t > 0

let pp_summary ppf t =
  Format.fprintf ppf "%d error%s, %d warning%s, %d info" (errors t)
    (if errors t = 1 then "" else "s")
    (warnings t)
    (if warnings t = 1 then "" else "s")
    (count Diagnostic.Info t)

let pp_human ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun d -> Format.fprintf ppf "%a@," Diagnostic.pp d) t.findings;
  Format.fprintf ppf "%a@]" pp_summary t

let to_json t =
  Core.Json.Object
    [ ("findings", List (List.map Diagnostic.to_json t.findings));
      ("errors", Int (errors t)); ("warnings", Int (warnings t)) ]

let exit_code t = if has_errors t then 1 else 0
