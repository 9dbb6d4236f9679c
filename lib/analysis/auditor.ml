(** Top-level driver: runs the analysis passes over every bundled data
    type plus the bound tables, producing one aggregated {!Report.t}.

    A {e target} packs a concrete [Spec.Data_type.S] with the extra
    context sequences its searches need, behind closures, so callers
    (the CLI, the tests, CI) can iterate over heterogeneous data types
    without touching first-class modules themselves. *)

(* The product composition is audited too: it is how multi-object
   workloads reach the single-object machinery, so a defect in the
   functor (lost side tags, broken sample routing) matters as much as
   one in a leaf type. *)
module Register_queue = Spec.Product.Make (Spec.Register) (Spec.Fifo_queue)

type target = {
  name : string;
  spec_lint : unit -> Diagnostic.t list;
  class_audit : unit -> Diagnostic.t list;
  monitor_audit : unit -> Diagnostic.t list;
}

let target (type s i r) name
    (module T : Spec.Data_type.S
      with type state = s
       and type invocation = i
       and type response = r) (extra : i list list) =
  {
    name;
    spec_lint =
      (fun () ->
        let module L = Spec_lint.Make (T) in
        L.run ());
    class_audit =
      (fun () ->
        let module A = Class_audit.Make (T) in
        A.run ~extra ());
    monitor_audit =
      (fun () ->
        let module M = Monitor_audit.Make (T) in
        M.run ~extra ());
  }

let targets =
  [
    target "register" (module Spec.Register) [];
    target "rmw-register" (module Spec.Rmw_register) [];
    target "queue" (module Spec.Fifo_queue) [];
    target "stack" (module Spec.Stack_type) [];
    target "tree" (module Spec.Tree_type)
      Spec.Tree_type.classification_contexts;
    target "set" (module Spec.Set_type) [];
    target "counter" (module Spec.Counter_type) [];
    target "priority-queue" (module Spec.Priority_queue) [];
    target "log" (module Spec.Log_type) [];
    target "product" (module Register_queue) [];
  ]

let target_names = List.map (fun t -> t.name) targets

let find_target name =
  List.find_opt (fun t -> String.equal t.name name) targets

let audit_target t = t.spec_lint () @ t.class_audit () @ t.monitor_audit ()

let audit_types () = List.concat_map audit_target targets

let audit_all () =
  Report.of_findings (audit_types () @ Bound_audit.run ())
