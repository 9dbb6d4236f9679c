(** Top-level driver over all passes and all bundled data types. *)

val audit : (module Spec.Data_type.S) -> Diagnostic.t list
(** spec_lint + class_audit + monitor_audit for one data type.  A
    user-supplied spec is audited the same way as the bundled ones, by
    passing its first-class module; its own [classification_contexts]
    join the classification searches. *)

val audit_types : unit -> Diagnostic.t list
(** {!audit} over every entry of [Scenario.Packed_type.all], in
    order. *)

val audit_all : unit -> Report.t
(** Everything: all types plus the bound-table audit. *)
