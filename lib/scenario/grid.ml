(* The sweep grid: a declarative campaign — data type x algorithm x
   model point x delay schedule x fault plan x channel leg x seed —
   enumerated cell by cell.  Each cell is one scenario
   ([Scenario.of_sweep_cell]); the sweep engine runs them. *)

(* Algorithm axis of the grid.  Wtlw's tradeoff parameter is declared
   as a fraction of [d - eps] so one grid entry stays valid at every
   model point (Lemma 4 requires X in [0, d - eps]). *)
type algo =
  | Wtlw of { frac : Rat.t }
  | Centralized
  | Tob

let algo_label = function
  | Wtlw { frac } -> Printf.sprintf "wtlw(%s)" (Rat.to_string frac)
  | Centralized -> "centralized"
  | Tob -> "tob"

let resolve_x (m : Sim.Model.t) = function
  | Wtlw { frac } -> Rat.mul frac (Rat.sub m.d m.eps)
  | Centralized | Tob -> Rat.zero

type channel_leg = Raw | Recovered

let leg_label = function Raw -> "raw" | Recovered -> "recovered"

(* Delay-schedule axis: random admissible delays (seeded from the cell
   coordinates), or the all-max / all-min adversarial schedules the
   table measurements use to realize worst cases. *)
type delays = Random_delays | Max_delays | Min_delays

let delays_label = function
  | Random_delays -> "random"
  | Max_delays -> "max"
  | Min_delays -> "min"

type grid = {
  types : Packed_type.t list;
  algos : algo list;
  points : Sim.Model.t list;
  delays : delays list;
  plans : (string * Sim.Fault.plan) list;
  legs : channel_leg list;
  seeds : int list;
  per_proc : int;
  max_events : int;
  max_check_nodes : int option;
  checker : Core.Runtime.checker;
}

let default_points =
  [
    Sim.Model.make ~n:3 ~d:(Rat.of_int 10) ~u:(Rat.of_int 4) ~eps:Rat.one;
    Sim.Model.make ~n:4 ~d:(Rat.of_int 8) ~u:(Rat.of_int 2)
      ~eps:(Rat.make 1 2);
  ]

(* The reference grid of the acceptance criteria: every bundled type,
   all three algorithms, two model points, both channel legs. *)
let default_grid =
  {
    types = Packed_type.all;
    algos = [ Wtlw { frac = Rat.make 1 2 }; Centralized; Tob ];
    points = default_points;
    delays = [ Random_delays ];
    plans = [ ("none", Sim.Fault.none) ];
    legs = [ Raw; Recovered ];
    seeds = [ 1 ];
    per_proc = 2;
    max_events = 500_000;
    max_check_nodes = Some 5_000_000;
    checker = Core.Runtime.Monitor;
  }

type cell = {
  dt : Packed_type.t;
  algo : algo;
  point : Sim.Model.t;
  delays : delays;
  plan_label : string;
  plan : Sim.Fault.plan;
  leg : channel_leg;
  seed : int;
}

let cells grid =
  let ( let* ) axis f = List.concat_map f axis in
  let* dt = grid.types in
  let* algo = grid.algos in
  let* point = grid.points in
  let* delays = grid.delays in
  let* plan_label, plan = grid.plans in
  let* leg = grid.legs in
  List.map
    (fun seed -> { dt; algo; point; delays; plan_label; plan; leg; seed })
    grid.seeds

(* Canonical cell coordinates.  This string is both the human-readable
   cell id in reports and the input to the seed hash, so it must name
   every axis that can change the run. *)
let cell_key grid (c : cell) =
  let m = c.point in
  Printf.sprintf
    "type=%s;algo=%s;n=%d;d=%s;u=%s;eps=%s;delays=%s;faults=%s;leg=%s;seed=%d;per_proc=%d"
    (Packed_type.key c.dt) (algo_label c.algo) m.n (Rat.to_string m.d)
    (Rat.to_string m.u) (Rat.to_string m.eps) (delays_label c.delays)
    c.plan_label (leg_label c.leg) c.seed grid.per_proc

let derived_seed grid c = Core.Hash.fnv1a (cell_key grid c)
