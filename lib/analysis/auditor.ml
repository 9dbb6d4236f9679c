(* Top-level driver: runs the analysis passes over every bundled data
   type plus the bound tables, producing one aggregated [Report.t].

   The bundled types are [Scenario.Packed_type.all], the list every
   pipeline runs, so the audit covers exactly the instances that run —
   the queue × register product included: it is how multi-object
   workloads reach the single-object machinery, so a defect in the
   functor (lost side tags, broken sample routing) matters as much as
   one in a leaf type. *)

let audit (module T : Spec.Data_type.S) =
  let module L = Spec_lint.Make (T) in
  let module A = Class_audit.Make (T) in
  let module M = Monitor_audit.Make (T) in
  L.run () @ A.run () @ M.run ()

let audit_types () =
  List.concat_map
    (fun pt -> audit (Scenario.Packed_type.modl pt))
    Scenario.Packed_type.all

let audit_all () =
  Report.of_findings (audit_types () @ Bound_audit.run ())
