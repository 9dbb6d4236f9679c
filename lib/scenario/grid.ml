(* The sweep grid: a declarative campaign — data type x algorithm x
   model point x delay schedule x channel leg x seed — enumerated cell
   by cell.  Each cell is one fault-free scenario
   ([Scenario.of_sweep_cell]); the sweep engine runs them. *)

(* Algorithm axis of the grid.  Wtlw's tradeoff parameter is declared
   as a fraction of [d - eps] so one grid entry stays valid at every
   model point (Lemma 4 requires X in [0, d - eps]). *)
type algo =
  | Wtlw of { frac : Rat.t }
  | Centralized
  | Tob

(* Cell keys are rendered straight into one buffer: [Printf] and
   [Rat.to_string] would build every field as a string of its own, and
   the key is rebuilt for every cell a sweep runs. *)
let add_int = Sexp.add_int
let add_rat = Rat.add_to_buffer

let add_algo b = function
  | Wtlw { frac } ->
      Buffer.add_string b "wtlw(";
      add_rat b frac;
      Buffer.add_char b ')'
  | Centralized -> Buffer.add_string b "centralized"
  | Tob -> Buffer.add_string b "tob"

let algo_label a =
  let b = Buffer.create 16 in
  add_algo b a;
  Buffer.contents b

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
  legs : channel_leg list;
  seeds : int list;
  per_proc : int;
  max_check_nodes : int option;
  checker : Core.Runtime.checker;
}

let max_events = 500_000

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
    legs = [ Raw; Recovered ];
    seeds = [ 1 ];
    per_proc = 2;
    max_check_nodes = Some 5_000_000;
    checker = Core.Runtime.Monitor;
  }

type cell = {
  dt : Packed_type.t;
  algo : algo;
  point : Sim.Model.t;
  delays : delays;
  leg : channel_leg;
  seed : int;
}

let cells grid =
  let ( let* ) axis f = List.concat_map f axis in
  let* dt = grid.types in
  let* algo = grid.algos in
  let* point = grid.points in
  let* delays = grid.delays in
  let* leg = grid.legs in
  List.map (fun seed -> { dt; algo; point; delays; leg; seed }) grid.seeds

(* Canonical cell coordinates.  This string is both the human-readable
   cell id in reports and the input to the seed hash, so it must name
   every axis that can change the run. *)
let cell_key grid (c : cell) =
  let m = c.point in
  let b = Buffer.create 128 in
  Buffer.add_string b "type=";
  Buffer.add_string b (Packed_type.key c.dt);
  Buffer.add_string b ";algo=";
  add_algo b c.algo;
  Buffer.add_string b ";n=";
  add_int b m.n;
  Buffer.add_string b ";d=";
  add_rat b m.d;
  Buffer.add_string b ";u=";
  add_rat b m.u;
  Buffer.add_string b ";eps=";
  add_rat b m.eps;
  Buffer.add_string b ";delays=";
  Buffer.add_string b (delays_label c.delays);
  (* Every cell is fault-free (faults are [repro faults]' campaign),
     but keys keep the field: journals, spools and fingerprints are
     keyed by these bytes. *)
  Buffer.add_string b ";faults=none";
  Buffer.add_string b ";leg=";
  Buffer.add_string b (leg_label c.leg);
  Buffer.add_string b ";seed=";
  add_int b c.seed;
  Buffer.add_string b ";per_proc=";
  add_int b grid.per_proc;
  Buffer.contents b

let derived_seed grid c = Core.Hash.fnv1a (cell_key grid c)
