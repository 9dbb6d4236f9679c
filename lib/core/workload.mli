(** Workload schedules and open-loop load generation.

    The {e schedule} layer is the original fixed-script API: explicit
    [entry] lists for small, hand-shaped runs.  The {e generator} layer
    ({!arrival}, {!Gen}, {!Route}) produces production-shaped traffic:
    open-loop arrival processes (Poisson, bursty, diurnal) over exact
    [Rat] time, Zipf-skewed object keys, and per-type invocation mixes
    — seed-deterministic and streaming, so a million-operation schedule
    is pulled one item at a time and never materializes as a list.

    The §2.2 model allows at most one pending operation per process, so
    open-loop schedules must space invocations at a process further
    apart than the worst-case operation latency ([2d + eps] is always
    safe).  Closed-loop workloads (next invocation upon the previous
    response) are driven by {!Runtime} and need no spacing assumption;
    generator-driven runs use {!Route} under {!Runtime}'s [Paced]
    workload, which clamps each arrival to the previous response so
    overload degrades into backpressure instead of a constraint
    violation. *)

type 'inv entry = { proc : int; at : Rat.t; inv : 'inv }

val entry : proc:int -> at:Rat.t -> 'inv -> 'inv entry

(** {1 Arrival processes} *)

(** Open-loop arrival processes over [Rat] time; rates are operations
    per simulated time unit.  [Bursty] emits bursts of [size]
    simultaneous arrivals whose starts come at [rate/size], keeping the
    long-run operation rate at [rate].  [Diurnal] modulates a Poisson
    process by a sinusoidal day curve: instantaneous intensity swings
    between [trough * rate] and [rate] over each [period]. *)
type arrival =
  | Poisson of { rate : Rat.t }
  | Bursty of { rate : Rat.t; size : int }
  | Diurnal of { rate : Rat.t; period : Rat.t; trough : Rat.t }

val arrival_label : arrival -> string
(** Canonical label, e.g. ["poisson(rate=2)"] — stable across runs, used
    in fingerprints and reports. *)

type 'inv keyed = { at : Rat.t; key : int; inv : 'inv }
(** A generated arrival: when, which object key, which invocation. *)

(** Streaming seed-deterministic generator.  [create] validates its
    parameters and fixes the stream; {!Gen.next} then emits arrivals
    one at a time in nondecreasing time order.  Two generators built
    with equal parameters emit byte-identical streams, which is what
    lets every shard of a sharded run re-derive the global stream and
    filter its own keys without any shared state. *)
module Gen : sig
  type 'inv t

  val quantum : int
  (** Generated times are whole multiples of [1/quantum] (1/1024): the
      stream counts time in these quanta. *)

  val create :
    arrival:arrival ->
    ?zipf:float ->
    keys:int ->
    ops:int ->
    seed:int ->
    invocation:(Random.State.t -> key:int -> seq:int -> 'inv) ->
    unit ->
    'inv t
  (** [zipf] is the skew exponent [s] over [keys] object keys: key [k]
      is drawn with weight [1/(k+1)^s] ([s = 0], the default, is
      uniform).  [invocation] draws the operation for a chosen key from
      the generator's own RNG; [seq] is the arrival's 0-based position
      in the stream, unique per run, so tagged generators
      ([fun rng ~key:_ ~seq -> T.gen_tagged rng ~tag:seq]) produce
      unambiguous histories that the per-type monitors certify in
      O(n log n) instead of falling back to Wing-Gong.  Raises
      [Invalid_argument] as {!validate} does. *)

  val validate :
    arrival:arrival -> ?zipf:float -> keys:int -> ops:int -> unit -> unit
  (** The checks {!create} makes, for callers that validate a run's
      description before generating it.  Raises [Invalid_argument] on
      non-positive rates, a burst size below 1, a period that is not
      positive, a trough outside [[0, 1]], [keys < 1], [ops < 0], a
      negative [zipf] or a nan or infinite one (["zipf is nan or
      infinite"]); and, naming it
      an ["unrepresentable arrival gap"], on an arrival whose longest
      drawable gap (about 13.82 means, divided by [trough] for
      [Diurnal]) times [ops] does not fit in int quanta of 1/1024 — a
      [Diurnal] trough of 0 among them. *)

  val next : 'inv t -> 'inv keyed option
  (** The next arrival, or [None] once [ops] arrivals have been
      emitted.  Times are strictly positive and nondecreasing. *)
end

(** Demultiplex one generated stream onto processes.  Kept arrivals are
    dealt round-robin across [procs] processes in generation order;
    each process pulls its own feed with {!Route.pop}.  Each process's
    buffer is a ring of parallel arrays holding times in {!Gen.quantum}
    units, so dealing an arrival allocates nothing; buffers stay as
    deep as the furthest a process falls behind the others. *)
module Route : sig
  type 'inv t

  val create :
    ?min_gap:Rat.t -> procs:int -> keep:(int -> bool) -> 'inv Gen.t -> 'inv t
  (** [keep] filters by object key (a shard keeps [fun k -> k mod shards
      = me]); dropped arrivals are consumed from the generator but not
      dealt, so all shards of one seed see the same global stream.
      [min_gap] (default 0) additionally spaces consecutive arrivals
      assigned to the same process. *)

  val pop : 'inv t -> proc:int -> int
  (** [pop t ~proc] dequeues the next arrival assigned to [proc] and
      returns the ring slot that holds it, to read with {!quanta},
      {!key} and {!inv}; [-1] when the stream is exhausted for that
      process.  The slot holds the arrival until the route next
      generates, at the next {!pop} or {!next}.  It builds nothing:
      without a [min_gap] a process's arrivals are already
      nondecreasing, so the time is the generated one.
      @raise Invalid_argument on a route created with a positive
      [min_gap] (use {!next}). *)

  val quanta : 'inv t -> proc:int -> int -> int
  (** The invocation time of the arrival in [proc]'s slot, in
      {!Gen.quantum} units. *)

  val key : 'inv t -> proc:int -> int -> int
  (** The object key of the arrival in [proc]'s slot. *)

  val inv : 'inv t -> proc:int -> int -> 'inv
  (** The invocation of the arrival in [proc]'s slot. *)

  val next : 'inv t -> proc:int -> (Rat.t * 'inv keyed) option
  (** The next arrival assigned to [proc] as generated, next to its
      invocation time clamped to at least [min_gap] after the previous
      one {!next} gave [proc]. *)
end

val materialize :
  procs:int -> min_gap:Rat.t -> 'inv Gen.t -> 'inv keyed entry list
(** Drain a generator into an explicit schedule, in generation order:
    a {!Route} with every key kept, so arrivals are assigned
    round-robin and per-process invocation times are clamped at least
    [min_gap] apart — pass the model's [2d + eps] for an always-safe
    open loop.  Intended for small schedules; a streamed run should use
    {!Route}.  Raises [Invalid_argument] on [procs < 1] or a negative
    [min_gap]. *)

(** {1 Fixed schedules} *)

val open_loop :
  n:int ->
  per_proc:int ->
  spacing:Rat.t ->
  gen:(proc:int -> k:int -> 'inv) ->
  unit ->
  'inv entry list
(** Every process invokes [per_proc] operations, the [k]-th at
    [k*spacing]. *)

val random_open_loop :
  n:int ->
  per_proc:int ->
  spacing:Rat.t ->
  seed:int ->
  gen_invocation:(Random.State.t -> 'inv) ->
  unit ->
  'inv entry list
(** {!open_loop} with invocations drawn from the data type's random
    generator; deterministic for a fixed seed. *)

val concurrent_bursts :
  n:int ->
  rounds:int ->
  spacing:Rat.t ->
  gen:(proc:int -> k:int -> 'inv) ->
  unit ->
  'inv entry list
(** Rounds of genuinely overlapping invocations: in each round all [n]
    processes invoke within a fraction of a time unit of each other. *)

val sort_schedule : 'inv entry list -> 'inv entry list
(** Stable sort by invocation time, breaking ties by process id — the
    sorted schedule is invariant to the order entries were emitted
    in. *)
