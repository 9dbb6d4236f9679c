(** The deterministic bench sections behind [repro bench].

    Every section is a pure function of its own constants: fixed
    model, fixed seeds, no wall-clock input — so its allocation
    profile is exactly reproducible and can be gated (see {!History}).
    Sections return their event/operation count, the denominator for
    per-event normalization. *)

type section = {
  name : string;
  description : string;
  prepare : unit -> unit -> int;
      (** build the workload's input (not measured) and return the
          measured run, which returns its event count *)
}

val sections : section list
(** ["rat-kernel"]: tight rational-arithmetic loop over the small
    fractions simulation time is made of.  ["engine-queue-8k"]: the
    8000-operation closed-loop FIFO-queue workload (4 processes,
    optimal-epsilon model, seed 9, think time 1/2) with event retention
    off, as every [Runtime] pipeline runs it; DESIGN.md §4d keeps the
    last retained-vs-streamed comparison of this run.
    ["load-shard-4k"]: the [repro load] pipeline at bench scale — a
    4000-operation diurnal Zipf stream over 4
    FIFO-queue shards, certified per key, run inline on one domain.
    ["load-tree-4k"]: the same stream over 4 rooted-tree shards, a type
    no kernel decides, so every key is certified by the algorithm's
    own order over that key.
    ["load-lossy-4k"]: the same pipeline's lossy leg — a 4000-operation
    Poisson Zipf stream over 4 register shards behind the reliable
    channel, with 5% drops and 2% duplicates.
    ["scenario-1k"]: a pinned 1000-operation generated-workload
    scenario lowered through the scenario executor, certified and
    judged against its temporal predicate.  ["codec-1k"]: 1000
    generated scenarios, drawn while preparing, each rendered and
    decoded again by the scenario codec; one event per scenario.
    ["sweep-cells-240"]: the reference sweep grid
    ([Sweep.default_grid]) at seeds 1 and 2 — 240
    closed-loop cells over every type, algorithm, model point and
    channel leg — run inline and certified; its events are the cells'
    operations.  ["certify-cells-240"]: the same cells' completed
    operations and protocol orders, built while preparing, certified
    through [Core.Runtime.Make.certify] alone; its events are the
    operations certified.  ["monitor-queue-64k"]: a
    generated 64 000-operation queue history holding an empty
    observation, certified by [Monitor.Make(Fifo_queue).check]; its
    events are the operations.  ["monitor-register-16k"] and
    ["monitor-pqueue-16k"]: the same path on a generated 16 000-operation
    register history and priority-queue history (the latter holding an
    empty observation), the other two kernels [repro check] runs. *)

val find : string -> section option

val phases : int
(** How many phases of the minor heap a section is measured at (64). *)

val measure : ?phase:int -> section -> int * Measure.metrics
(** Prepare the section, run one minor collection, then measure the
    run ({!Measure.measure}) started [phase / phases] of the way into
    the minor heap (default [0]), and end it with one more minor
    collection.  What module initialisation or preparation left in the
    minor heap is thus never promoted on the section's account, and
    what the run leaves live is promoted on it at every phase.

    Which young blocks a minor collection finds live depends on where
    in the run the minor heap happens to fill, so one run's promoted
    words move with any allocation before that point.  The mean over
    all [phases] phases ({!History.average}) does not: it is the
    expected promotion of a run started at a uniformly random phase.
    Minor words do not depend on the phase. *)

val queue_events : per_proc:int -> unit -> int
(** The closed-loop queue workload at an arbitrary scale:
    [per_proc * 4] operations.  Runs the simulation to completion and
    returns the number of dispatched events.  Exposed for the
    allocation-budget regression test. *)
