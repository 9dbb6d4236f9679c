(** Robustness matrix: machine-checked graceful degradation.

    Mirrors [Ablation], but for the {e model} assumptions instead of
    the algorithm's waits: each cell pairs a data type with a
    {!Sim.Fault} plan and runs the same workload twice at a fixed
    seed —

    - {b raw}: the algorithm straight on the faulty network, judged
      against the paper's model.  The damage must be visible: pending
      operations, an inadmissible delay caught by the trace monitor,
      out-of-bound clock skew, or no linearization.
    - {b recovered}: the identical algorithm wrapped in the
      {!Reliable} ack/retransmit channel, judged against the inflated
      model [d' = d + k * rto] ([Reliable.inflated_model]).  The
      checker must certify the run end-to-end ([Runtime.ok]).

    A cell is {e certified} when its {!expectation} holds: [Recover]
    cells must come back linearizable over the reliable layer;
    [Detect] cells (crash-stop — unrecoverable by retransmission) must
    be flagged in the raw leg.  Every certified cell therefore
    witnesses the disjunction "flagged or recovered"; {!all_certified}
    over the full matrix is what CI gates on. *)

type expectation =
  | Detect  (** the raw run must be flagged; recovery is impossible *)
  | Recover  (** the reliable layer must restore [Runtime.ok] *)

val expectation_name : expectation -> string

(** One fault plan to evaluate, with its expected outcome. *)
type case = {
  label : string;
  plan : Sim.Fault.plan;
  expectation : expectation;
}

val default_cases : seed:int -> Sim.Model.t -> case list
(** The standard nemesis suite: message drops, duplication,
    out-of-envelope delay spikes, a drop+duplicate+spike storm, a
    crash-stop, and a clock-skew burst beyond [eps]. *)

(** Verdict of one leg (raw or recovered) of a cell. *)
type leg = {
  ok : bool;  (** [Runtime.ok] of the run's report *)
  flagged : bool;  (** [not ok], or the run aborted on a protocol violation *)
  pending : int;
  delays_admissible : bool;
  skew_admissible : bool;
  linearizable : bool;
  truncated : bool;
  faults : Sim.Trace.fault_counts;
  error : string option;
      (** a fault broke a protocol invariant outright (e.g. a duplicated
          reply answering a non-pending operation) — counts as flagged *)
  retransmits : int;  (** reliable-channel retransmissions (0 for raw legs) *)
  exhausted : int;  (** payloads the channel gave up on (0 for raw legs) *)
}

type cell = {
  data_type : string;
  case : string;  (** the {!case} label *)
  plan : string;  (** [Sim.Fault.describe] of the injected plan *)
  expectation : expectation;
  raw : leg;
  recovered : leg;
  certified : bool;
}

val all_certified : cell list -> bool
(** No cell missing, no cell failed: every listed cell is certified. *)

val aborted_leg : string -> leg
(** The leg of a run that died on a protocol violation (or never ran):
    flagged, with the diagnostic in [error]. *)

val cell_of_legs : data_type:string -> case -> raw:leg -> recovered:leg -> cell
(** Combine the two legs of a case into a cell, applying the
    certification semantics (crash = detect on the raw leg, the rest =
    recover on the reliable leg). *)

val pp_cell : Format.formatter -> cell -> unit
val pp_matrix : Format.formatter -> cell list -> unit

val pp_json : Format.formatter -> cell list -> unit
(** Machine-readable report enumerating {e every} cell with both legs'
    verdicts, ending with the aggregate ["certified"] flag. *)

module Make (T : Spec.Data_type.S) : sig
  module R : module type of Runtime.Make (T)

  val run_leg :
    ?per_proc:int ->
    model:Sim.Model.t ->
    x:Rat.t ->
    seed:int ->
    recovered:bool ->
    Sim.Fault.plan ->
    leg
  (** One leg of a cell on a closed-loop workload ([per_proc]
      operations per process, default 3): raw ([recovered = false]) or
      over the reliable channel against the inflated model
      ([recovered = true]).  Both legs of a cell share the workload,
      the delay schedule and the fault plan. *)

  val cell_of_legs : case -> raw:leg -> recovered:leg -> cell
  (** Combine the two legs of a case into a cell, applying the
      certification semantics (crash = detect on the raw leg, the rest
      = recover on the reliable leg). *)

  val run_cell :
    ?per_proc:int ->
    model:Sim.Model.t ->
    x:Rat.t ->
    seed:int ->
    case ->
    cell
  (** Both legs of one cell, sequentially.

      The full matrix driver lives in [Sweep.robustness]: each
      (case, data type) cell is a sweep cell sharded across the domain
      pool, which is how [repro faults] gets [--jobs N]. *)
end
