(** Tables 1-5 of the paper, regenerated from the implemented bound
    formulas.  Bounds carry both the symbolic formula printed in the
    paper and its value at the given model parameters. *)

type bound = {
  formula : string;  (** e.g. ["(1-1/n)u"] *)
  value : Rat.t;
  source : string;  (** e.g. ["Thm. 3"] *)
}

(** What a row's latency is measured by: a data type's operation
    (Tables 1-4, by its spec name, e.g. ["rmw"] for the
    read-modify-write row) or an operation class (Table 5). *)
type measure = Op of string | Class of Spec.Op_kind.t

type row = {
  operation : string;
  measures : measure list;
      (** one for a single-operation row; two for a sum row, whose
          measured latency is the sum of the two worst cases *)
  prev_lb : bound option;
  new_lb : bound option;
  new_ub : bound;
}

type table = { title : string; rows : row list }

val summary : Sim.Model.t -> x:Rat.t -> table
(** Table 5: bounds by operation class. *)

val by_type : (string * (Sim.Model.t -> x:Rat.t -> table)) list
(** Tables 1-4, in paper order, each with the key of the bundled data
    type whose operations its rows name (["rmw-register"], ["queue"],
    ["stack"], ["tree"]): the static auditor checks each row's theorem
    against that type's classification, and [repro tables] measures
    that type. *)

val all : Sim.Model.t -> x:Rat.t -> table list
(** All five, in paper order. *)

type inconsistency =
  | Lb_above_ub of bound  (** the new LB, above [new_ub] *)
  | Lb_below_prev of { lb : bound; prev : bound }  (** new LB < previous *)

val inconsistencies : row -> inconsistency list
(** What [row] breaks of new LB <= new UB and new LB >= previous LB. *)

val pp_bound : Format.formatter -> bound option -> unit
(** ["formula = value (source)"] padded to 30 columns, or ["-"] for
    [None]: one cell of a printed table. *)
