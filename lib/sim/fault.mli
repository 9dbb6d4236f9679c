(** Fault-injection plans for the simulator.

    The paper's model (§2.2) assumes reliable channels with delays in
    [[d - u, d]] and clock skew at most [eps].  A {!plan} deliberately
    breaks those assumptions in a seed-deterministic way, so that the
    rest of the stack can demonstrate {e graceful degradation}: every
    injected fault is recorded as a {!Trace.event}, the trace's
    admissibility monitor or the linearizability checker flags the
    damage, and the reliable-channel layer ([Core.Reliable]) restores
    linearizability under an inflated model.

    A plan is a pure description — a seed plus a list of primitive
    {!spec}s.  The
    engine {!instantiate}s it into a stateful {!injector} per run, so
    the same plan replayed with the same seed injects the identical
    faults. *)

(** One primitive fault source.  Message faults apply per engine-level
    transmission (retransmissions of the reliable layer are separate
    transmissions and roll independently). *)
type spec =
  | Drop of { p : float; edges : edges }
      (** lose the message with probability [p] *)
  | Duplicate of { p : float; edges : edges }
      (** deliver an extra copy (same delay) with probability [p] *)
  | Spike of { p : float; edges : edges; margin : Rat.t; below : bool }
      (** with probability [p] shift the sampled delay by [margin]:
          [delay + margin] (or [max 0 (delay - margin)] when [below]).
          With [margin > u] an upward spike is guaranteed to leave the
          model's envelope [[d - u, d]] *)
  | Crash of { proc : int; at : Rat.t }
      (** crash-stop: the process handles no event at real time >= [at] *)
  | Skew of { proc : int; offset : Rat.t }
      (** perturb the process's clock by [offset] on top of its
          engine offset, bypassing the model's skew validation *)

and edges = All | Edges of (int * int) list  (** (src, dst) pairs *)

type plan = { seed : int; specs : spec list }

val none : plan
(** The empty plan: injects nothing. *)

val is_none : plan -> bool

val plan : ?seed:int -> spec list -> plan
(** Build a plan; [seed] defaults to [0]. *)

val drops : ?edges:edges -> float -> spec
val duplicates : ?edges:edges -> float -> spec
val spikes : ?edges:edges -> ?below:bool -> margin:Rat.t -> float -> spec
val crash : proc:int -> at:Rat.t -> spec
(** @raise Invalid_argument if [at < 0]. *)

val skew : proc:int -> offset:Rat.t -> spec

val check : plan -> n:int -> unit
(** @raise Invalid_argument naming the first spec that its constructor
    would refuse (a probability outside [[0, 1]], a spike margin that
    is not positive, a negative crash time), or whose process or edge
    lies outside [[0, n)]: such a spec would inject nothing. *)

(** An injected fault, as recorded in the trace ({!Trace.Fault}) and
    counted by the trace's O(1) fault counters. *)
type kind =
  | Dropped of { src : int; dst : int; seq : int }
  | Duplicated of { src : int; dst : int; seq : int }
  | Spiked of { src : int; dst : int; seq : int; delay : Rat.t }
  | Crashed of { proc : int; at : Rat.t }
  | Skewed of { proc : int; offset : Rat.t }

val pp_kind : Format.formatter -> kind -> unit

(** {1 Static plan queries} *)

val crash_time : plan -> proc:int -> Rat.t option
(** Earliest crash scheduled for [proc], if any. *)

val skew_offsets : plan -> n:int -> Rat.t array
(** Summed clock perturbation per process. *)

val extra_skew : plan -> Rat.t
(** Worst additional pairwise skew the plan can introduce: the spread
    of {!skew_offsets} including the unperturbed processes' [0].  Used
    to inflate a model's [eps] for recovery runs. *)

val max_spike : plan -> Rat.t
(** Largest upward spike margin in the plan ([0] if none): spiked
    delays never exceed the sampled delay plus [max_spike]. *)

val describe : plan -> string
(** One-line human summary, e.g. ["seed=7 drop(0.25,all) crash(p1@36)"]. *)

(** {1 Instantiation (used by the engine)} *)

type injector

val instantiate : plan -> injector
(** Fresh fault state (RNG seeded from the plan's seed) for one run. *)

val decide : injector -> src:int -> dst:int -> delay:Rat.t -> int
(** The fate of one transmission whose fault-free delay is [delay], as
    a set of fate bits: {!dropped}, {!duplicated} and {!spiked} ([0]:
    deliver one copy after [delay]).  Every probabilistic spec is
    rolled on every call, in plan order, whether or not an earlier one
    fired; a spec with [p = 0] draws nothing.  The first spike that
    fires sets {!spike_delay}.  Consumes RNG state; deterministic in
    engine send order.

    A roll is [Random.State.float rng 1.0 < p], computed bit for bit
    as the stdlib computes it but compared without boxing the float,
    so a decision allocates nothing (a spike allocates only a
    non-integer delay). *)

val dropped : int
(** Fate bit: the transmission is lost (it still counts as sent). *)

val duplicated : int
(** Fate bit: deliver a second copy with the same delay. *)

val spiked : int
(** Fate bit: deliver after {!spike_delay} instead of the sampled
    delay. *)

val spike_delay : injector -> Rat.t
(** The delay of the last transmission {!decide} returned {!spiked}
    for: [delay + margin], or [max 0 (delay - margin)] for a spike
    below. *)
