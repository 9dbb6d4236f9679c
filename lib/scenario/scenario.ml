(* The scenario DSL: one first-class value describing a whole run —
   workload, model point, delay schedule, fault plan, checker,
   algorithm (including ablation knobs) and an expected outcome with a
   temporal predicate — plus the machinery around it: a stable textual
   encoding, a seed-deterministic generator, the one executor lowering
   onto [Runtime.Config], and a counterexample shrinker.  The sweep
   grid, the fault matrix and the ablation legs are enumerators of
   scenarios.

   This is the library's public face; the submodules stay accessible
   ([Scenario.Exec], [Scenario.Shrink], ...) for code that wants the
   detailed result records. *)

include Types

module Packed_type = Packed_type
module Grid = Grid
module Robustness = Robustness
module Ablation = Ablation
module Sexp = Sexp
module Exec = Exec
module Shrink = Shrink
module Generate = Generate
module Probe = Probe
module Builtin = Builtin

(* Codec, re-exported flat: [Scenario.to_string] etc. *)
let to_string = Codec.to_string
let of_string = Codec.of_string
let save = Codec.save
let load = Codec.load

let run = Packed_type.run
let shrink = Shrink.shrink
let gen = Generate.gen

(* A sweep cell as a scenario, named by its canonical key and seeded by
   the key's hash (the seed drives both the delay sampling and the
   closed loop; offsets zero; think 1/2).  [Sweep.eval] runs exactly
   this scenario.  A campaign renders each key once and passes it as
   [key]; without it the key is rendered here. *)
let of_sweep_cell ?key (grid : Grid.grid) (cell : Grid.cell) : t =
  let model = cell.point in
  let key =
    match key with Some k -> k | None -> Grid.cell_key grid cell
  in
  let algorithm =
    match cell.algo with
    | Grid.Wtlw _ ->
        Wtlw { x = Grid.resolve_x model cell.algo; knob = Core.Ablation.Paper }
    | Grid.Centralized -> Centralized
    | Grid.Tob -> Tob
  in
  let delays =
    match cell.delays with
    | Grid.Random_delays -> Random_delays
    | Grid.Max_delays -> Max_delays
    | Grid.Min_delays -> Min_delays
  in
  make ~name:key
    ~dt:(Packed_type.key cell.dt)
    ~model ~delays ~faults:Sim.Fault.none
    ~reliable:(cell.leg = Grid.Recovered)
    ~checker:grid.checker ~algorithm
    ~workload:(Closed_loop { per_proc = grid.per_proc; think = Rat.make 1 2 })
    ~seed:(Core.Hash.fnv1a key) ~max_events:Grid.max_events
    ?max_check_nodes:grid.max_check_nodes ~expect:Certify ~predicate:True ()
