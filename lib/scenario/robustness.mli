(** Robustness matrix: machine-checked graceful degradation.

    Mirrors [Ablation], but for the {e model} assumptions instead of
    the algorithm's waits: each cell pairs a data type with a
    {!Sim.Fault} plan and runs the same workload twice at a fixed
    seed, each leg a scenario ({!scenario}) run by [Scenario.run], so
    its verdict is a plain [Exec.outcome] —

    - {b raw}: the algorithm straight on the faulty network, judged
      against the paper's model.  The damage must be visible: pending
      operations, an inadmissible delay caught by the trace monitor,
      out-of-bound clock skew, or no linearization.
    - {b recovered}: the identical algorithm wrapped in the
      [Core.Reliable] ack/retransmit channel, judged against the
      inflated model [d' = d + k * rto] ([Reliable.inflated_model]).  The
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

type cell = {
  data_type : string;
  case : string;  (** the {!case} label *)
  plan : string;  (** [Sim.Fault.describe] of the injected plan *)
  expectation : expectation;
  raw : Exec.outcome;
      (** flagged when not [ok], aborted runs included; an aborted run
          (a fault broke a protocol invariant outright) carries its
          named [diagnostic] *)
  recovered : Exec.outcome;
  certified : bool;
}

val all_certified : cell list -> bool
(** No cell missing, no cell failed: every listed cell is certified. *)

val pp_matrix : Format.formatter -> cell list -> unit

val to_json : cell list -> Core.Json.t
(** Machine-readable report enumerating {e every} cell with both legs'
    verdicts, ending with the aggregate ["certified"] flag. *)

val scenario :
  model:Sim.Model.t ->
  x:Rat.t ->
  seed:int ->
  recovered:bool ->
  Packed_type.t ->
  case ->
  Types.t
(** One leg of a cell as a scenario: Algorithm 1 at [x] on a closed-loop
    workload of 3 operations per process, raw ([recovered = false]) or
    over the reliable channel against the inflated model
    ([recovered = true]).  Both legs of a cell share the workload, the
    delay schedule and the fault plan.  The scenario expects [Certify]
    on the recovered leg of a [Recover] case and [Violate] on every
    other leg; only the leg its case judges decides the cell (a
    harmless drop can leave a raw leg clean).  Saved with
    [Scenario.save], a leg is a self-contained repro file. *)

val judge :
  model:Sim.Model.t ->
  x:Rat.t ->
  seed:int ->
  Packed_type.t ->
  case ->
  (Types.t -> Exec.outcome) ->
  cell
(** [judge ... leg] runs both legs' {!scenario}s through [leg] and
    applies the certification semantics: crash = detect on the raw
    leg (not [ok]), the rest = recover on the reliable leg ([ok]). *)

val run_cell :
  model:Sim.Model.t -> x:Rat.t -> seed:int -> Packed_type.t -> case -> cell
(** Both legs of one cell, sequentially, each run by [Scenario.run]
    ({!judge} with [Packed_type.run]).

    The full matrix driver lives in [Sweep.robustness]: each
    (case, data type) cell is one pool job, which is how
    [repro faults] gets [--jobs N]. *)
