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

val rmw_register : Sim.Model.t -> x:Rat.t -> table
(** Table 1: read/write/read-modify-write registers. *)

val queue : Sim.Model.t -> x:Rat.t -> table
(** Table 2: FIFO queues. *)

val stack : Sim.Model.t -> x:Rat.t -> table
(** Table 3: stacks (push+peek has no Theorem 5 row — the paper's
    exception). *)

val tree : Sim.Model.t -> x:Rat.t -> table
(** Table 4: simple rooted trees. *)

val summary : Sim.Model.t -> x:Rat.t -> table
(** Table 5: bounds by operation class. *)

val all : Sim.Model.t -> x:Rat.t -> table list
(** All five, in paper order. *)

val row_consistent : row -> bool
(** New LB >= previous LB, and new LB <= new UB. *)

val pp_bound : Format.formatter -> bound option -> unit
(** ["formula = value (source)"] padded to 30 columns, or ["-"] for
    [None]: one cell of a printed table. *)
