(** Declarative scenarios: runs as data.

    A {!t} composes everything that defines a run — data type, model
    point, delay schedule, fault plan, checker, algorithm variant
    (including the ablation knobs), workload, budgets — with what the
    run is {e expected} to do (certify / violate-with-witness /
    named-diagnostic) and a temporal predicate over the observed trace.
    Around it:

    - a stable textual encoding ({!to_string}/{!of_string}; canonical,
      so [of_string (to_string s) = Ok s] and equal scenarios render
      byte-identically);
    - seed-deterministic random generation over the ten bundled types
      ({!gen}: same seed, byte-identical scenario);
    - the one executor that lowers a scenario onto [Runtime.Config]
      and runs it ({!run}, [Exec.Run(T).run_report]), ending every run
      that produces no report in a named [Exec.abort]; sweep cells
      ({!Grid}, {!of_sweep_cell}), fault-matrix legs ({!Robustness}),
      ablation legs ({!Ablation}) and [repro simulate] all run there;
    - a greedy deterministic counterexample shrinker ({!shrink}: drop
      invocations, move delay matrices toward the uniform point, drop
      fault specs, shrink seeds — to a fixpoint);
    - a bound probe feeding shrunk delay matrices into
      [Bounds.Adversary] ({!Probe}). *)

include module type of Types

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

(** {1 Codec} *)

val to_string : t -> string
(** Canonical rendering: the [(scenario] head, then one field per
    line, every field present, in a fixed order; byte-stable for equal
    scenarios. *)

val of_string : string -> (t, string) result
(** Decode a rendering.  Fields may come in any order (the first
    occurrence of each wins); unknown fields, comments and extra
    whitespace are ignored; a quoted atom reads as its bare spelling.
    Errors name the field, e.g. ["model: bad rational: x"] or
    ["missing field seed"]. *)

val save : string -> t -> unit
val load : string -> (t, string) result

(** {1 Running, generating, shrinking} *)

val run : t -> Exec.outcome
val gen : seed:int -> t
val shrink : ?max_attempts:int -> t -> (Shrink.outcome, string) result

(** {1 Sweep cells} *)

val of_sweep_cell : ?key:string -> Grid.grid -> Grid.cell -> t
(** A sweep cell as a scenario, named by {!Grid.cell_key} and seeded by
    {!Grid.derived_seed}.  [Sweep.eval] lowers and runs exactly this
    scenario.  [key], when given, must be [Grid.cell_key grid cell]:
    a campaign renders each key once and reuses it. *)
