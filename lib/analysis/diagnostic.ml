(** Structured findings produced by the static-analysis passes.

    Every pass reports through this one type so the renderers, the CLI
    exit code and the CI gate treat all rules uniformly.  A finding
    names the {e rule} that fired (dotted id, e.g. ["spec.determinism"]),
    the {e subject} it fired on (["<type>/<operation>"] or a table row),
    a human message, and — whenever the underlying search produced one —
    a concrete {e witness}: the context sequence and instances that
    exhibit the violation, pretty-printed with the data type's own
    printers. *)

type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Errors first, so sorted reports lead with what gates CI. *)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2
let compare_severity a b = Int.compare (severity_rank a) (severity_rank b)

type t = {
  severity : severity;
  rule : string;  (** dotted rule id, e.g. ["class.kind-mismatch"] *)
  subject : string;  (** what was audited, e.g. ["fifo-queue/enqueue"] *)
  message : string;
  witness : string option;  (** pretty-printed counterexample, if any *)
}

let make ?witness ~severity ~rule ~subject message =
  { severity; rule; subject; message; witness }

let error ?witness ~rule ~subject message =
  make ?witness ~severity:Error ~rule ~subject message

let warning ?witness ~rule ~subject message =
  make ?witness ~severity:Warning ~rule ~subject message

let info ~rule ~subject message = make ~severity:Info ~rule ~subject message

let pp ppf t =
  Format.fprintf ppf "@[<v 2>%s[%s] %s: %s"
    (severity_to_string t.severity)
    t.rule t.subject t.message;
  Option.iter (fun w -> Format.fprintf ppf "@,witness: %s" w) t.witness;
  Format.fprintf ppf "@]"

let to_json t =
  let open Core.Json in
  Object
    [ ("severity", String (severity_to_string t.severity));
      ("rule", String t.rule); ("subject", String t.subject);
      ("message", String t.message);
      ("witness", nullable (fun w -> String w) t.witness) ]
