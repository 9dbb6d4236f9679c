(** The sweep grid: a declarative campaign enumerated as scenarios.

    A {!grid} names the axes of a campaign — data type x algorithm x
    model point x delay schedule x channel leg x seed — and {!cells}
    is their Cartesian product.  Each {!cell} is one fault-free
    scenario ([Scenario.of_sweep_cell]), named by its canonical
    {!cell_key} and seeded by {!derived_seed}; the sweep engine
    ([Sweep.eval]) lowers and runs it through [Scenario.Exec].
    Injected faults lie outside the paper's model: [repro faults]. *)

(** {1 Axes} *)

(** Algorithm axis.  Wtlw's tradeoff parameter is a fraction of
    [d - eps], so one entry stays valid at every model point (Lemma 4
    requires X in [[0, d - eps]]). *)
type algo =
  | Wtlw of { frac : Rat.t }
  | Centralized
  | Tob

val algo_label : algo -> string
val resolve_x : Sim.Model.t -> algo -> Rat.t
(** The concrete X at a model point ([frac * (d - eps)]; zero for the
    baselines). *)

type channel_leg =
  | Raw  (** the algorithm straight on the network *)
  | Recovered
      (** wrapped in the [Core.Reliable] channel and judged against
          the inflated model *)

val leg_label : channel_leg -> string

(** Delay-schedule axis: seeded random admissible delays, or the
    all-max / all-min adversarial schedules the table measurements use
    to realize worst cases. *)
type delays = Random_delays | Max_delays | Min_delays

type grid = {
  types : Packed_type.t list;
  algos : algo list;
  points : Sim.Model.t list;
  delays : delays list;
  legs : channel_leg list;
  seeds : int list;
  per_proc : int;  (** closed-loop operations per process *)
  max_check_nodes : int option;
      (** DFS budget per cell; an exceeded search fails the cell with a
          named diagnostic instead of hanging the sweep *)
  checker : Core.Runtime.checker;
      (** certification engine for every cell (default [Monitor]: the
          specialized per-type monitors, Wing-Gong on fallback) *)
}

val max_events : int
(** Every cell's step limit, 500 000 events. *)

val default_points : Sim.Model.t list

val default_grid : grid
(** The reference grid: all ten bundled types x three algorithms x two
    model points x raw/recovered, fault-free, one seed. *)

(** {1 Cells} *)

type cell = {
  dt : Packed_type.t;
  algo : algo;
  point : Sim.Model.t;
  delays : delays;
  leg : channel_leg;
  seed : int;  (** the grid's base seed; the run uses {!derived_seed} *)
}

val cells : grid -> cell list
(** Cartesian product of the grid's axes, in a fixed order (types
    outermost, seeds innermost). *)

val cell_key : grid -> cell -> string
(** Canonical coordinates — the cell id in reports, the cell's scenario
    name and the input to the seed hash.  It still reads [faults=none],
    as journals and spools keyed by it were written. *)

val derived_seed : grid -> cell -> int
(** [Core.Hash.fnv1a] of {!cell_key}: stable across OCaml versions and
    independent of which domain claims the cell. *)
