(** Run traces as a streaming observer pipeline.

    A trace is the executable analogue of the paper's notion of a run (a
    set of timed views, §2.2): every invocation, response, message send
    and receive, and timer event, stamped with the real time at which it
    occurred.

    Events flow through {!record} (or the per-kind entry point that
    stands for it, such as {!send}) exactly once and fan out to a set
    of incremental sinks:

    - {b counters} — events, sends, deliveries ({!event_count},
      {!send_count}, {!deliver_count});
    - {b operation pairing} — invoke/response matching done online, so
      {!operations}, {!operation_count}, {!pending_invocations} and the
      {!on_operation} observers never re-scan the run;
    - {b delay envelope} — the min/max message delay, which answers
      {!delays_admissible} for any model in O(1);
    - {b admissibility monitor} — flags the first out-of-bounds delay
      the moment it is recorded ({!first_inadmissible});
    - {b retention} — the full chronological event list, on by default
      so the shifting/chopping machinery in [lib/bounds] and the tests
      keep their {!events} view, and disableable
      ([create ~retain_events:false]) so large closed-loop runs use
      O(operations) rather than O(events) memory;
    - any number of {b user sinks} attached with {!add_sink}.

    All views other than {!events}/{!message_delays} are maintained
    incrementally and work with retention off. *)

type ('msg, 'inv, 'resp) event =
  | Invoke of { time : Rat.t; proc : int; inv : 'inv }
  | Respond of { time : Rat.t; proc : int; inv : 'inv; resp : 'resp }
  | Send of {
      time : Rat.t;
      src : int;
      dst : int;
      seq : int;
      delay : Rat.t;
      msg : 'msg;
    }
  | Deliver of { time : Rat.t; src : int; dst : int; msg : 'msg }
  | Timer_set of { time : Rat.t; proc : int; id : int; expiry : Rat.t }
  | Timer_fire of { time : Rat.t; proc : int; id : int }
  | Timer_cancel of { time : Rat.t; proc : int; id : int }
  | Fault of { time : Rat.t; fault : Fault.kind }
      (** an injected fault ([Sim.Fault]), recorded at injection time *)

type ('msg, 'inv, 'resp) t

(** A completed operation extracted from a trace: the pairing of an
    invocation with its matching response (paper §2.3). *)
type ('inv, 'resp) operation = {
  proc : int;
  inv : 'inv;
  resp : 'resp;
  inv_time : Rat.t;
  resp_time : Rat.t;
}

(** A user-attachable incremental observer; [on_event] is called once
    per recorded event, in recording order. *)
type ('msg, 'inv, 'resp) sink = {
  name : string;
  on_event : ('msg, 'inv, 'resp) event -> unit;
}

(** The first inadmissible message delay seen by the monitor; [seq] is
    the engine's per-(src, dst) FIFO sequence number, so the record
    names the exact offending transmission. *)
type violation = {
  at : Rat.t;
  src : int;
  dst : int;
  seq : int;
  delay : Rat.t;
}

(** O(1) per-kind counters over injected {!Fault} events. *)
type fault_counts = {
  dropped : int;
  duplicated : int;
  spiked : int;
  crashed : int;
  skewed : int;
}

val no_faults : fault_counts
val total_faults : fault_counts -> int

val sum_faults : fault_counts list -> fault_counts
(** Per-kind sums, e.g. over the shards of a campaign. *)

val pp_faults : Format.formatter -> fault_counts -> unit
(** [faults: D dropped, P duplicated, S spiked, C crashed, K skewed]. *)

val create :
  ?retain_events:bool -> ?monitor:Model.t -> unit -> ('msg, 'inv, 'resp) t
(** [retain_events] (default [true]) keeps the full event list so that
    {!events} and {!message_delays} work; with [false] those two raise
    and memory stays O(operations).  [monitor] arms the admissibility
    monitor from the first event. *)

val of_events : ('msg, 'inv, 'resp) event list -> ('msg, 'inv, 'resp) t
(** Build a retaining trace from a pre-computed event list (used by the
    shifting machinery, which re-times events of an existing trace).
    The list is taken to already be in chronological order. *)

val record : ('msg, 'inv, 'resp) t -> ('msg, 'inv, 'resp) event -> unit
(** Feed one event to every sink.  Total: ill-formed histories (an
    overlapping invocation, a response without an invocation) are
    remembered and reported by the pairing accessors, not raised here. *)

(** {2 One entry point per event kind}

    Each is equivalent to {!record} of the corresponding event, but
    builds the event value only when something keeps it (retention is
    on or a user sink is attached); otherwise only the counters,
    pairing, envelope and monitor see the event's fields.  The engine
    records through these. *)

val invoke : ('msg, 'inv, 'resp) t -> time:Rat.t -> proc:int -> 'inv -> unit

val respond :
  ('msg, 'inv, 'resp) t -> time:Rat.t -> proc:int -> inv:'inv -> 'resp -> unit

val send :
  ('msg, 'inv, 'resp) t ->
  time:Rat.t ->
  src:int ->
  dst:int ->
  seq:int ->
  delay:Rat.t ->
  'msg ->
  unit

val deliver :
  ('msg, 'inv, 'resp) t -> time:Rat.t -> src:int -> dst:int -> 'msg -> unit

val timer_set :
  ('msg, 'inv, 'resp) t -> time:Rat.t -> proc:int -> id:int -> expiry:Rat.t -> unit

val timer_fire : ('msg, 'inv, 'resp) t -> time:Rat.t -> proc:int -> id:int -> unit

val timer_cancel :
  ('msg, 'inv, 'resp) t -> time:Rat.t -> proc:int -> id:int -> unit

val fault : ('msg, 'inv, 'resp) t -> time:Rat.t -> Fault.kind -> unit

val add_sink : ('msg, 'inv, 'resp) t -> ('msg, 'inv, 'resp) sink -> unit
(** Attach a user sink; it sees events recorded from now on. *)

val on_operation :
  ('msg, 'inv, 'resp) t -> (('inv, 'resp) operation -> unit) -> unit
(** Attach an observer called once per completed operation, at the
    moment its response is recorded. *)

val hand_over :
  ('msg, 'inv, 'resp) t -> (('inv, 'resp) operation -> unit) -> unit
(** [hand_over t f]: attach [f] as an {!on_operation} observer and keep
    no copy of the operations completed from now on, so that [f] holds
    the only one.  {!operation_count} still counts them;
    {!operations} raises [Invalid_argument]. *)

val set_operation_quantum : ('msg, 'inv, 'resp) t -> int -> unit
(** [set_operation_quantum t q]: the run records times in quanta of
    [1/q], and each operation completed from now on is paired with its
    times divided by [q], in time units — as {!operations} returns it
    and {!on_operation} observers see it.  Every other view stays in
    quanta.  The default is 1.
    @raise Invalid_argument if [q < 1]. *)

val retains_events : ('msg, 'inv, 'resp) t -> bool

val events : ('msg, 'inv, 'resp) t -> ('msg, 'inv, 'resp) event list
(** In chronological (recording) order.
    @raise Invalid_argument if retention is disabled. *)

val operations : ('msg, 'inv, 'resp) t -> ('inv, 'resp) operation list
(** Matched invocation/response pairs, ordered by invocation time.
    Computed by the online pairing sink — no trace re-scan.
    @raise Invalid_argument if a response had no pending invocation or
    an invocation overlapped a pending one, or if the operations were
    handed over ({!hand_over}). *)

val operation_array : ('msg, 'inv, 'resp) t -> ('inv, 'resp) operation array
(** {!operations} as a fresh array, in the same order and with the same
    exceptions.  Copying it never forces a minor collection, which
    [Array.of_list (operations t)] does once the run has more than 256
    operations. *)

val insert_in_order :
  ('inv, 'resp) operation array ->
  int ->
  ('inv, 'resp) operation ->
  ('inv, 'resp) operation array
(** [insert_in_order ops len op]: the first [len] slots of [ops] are in
    invocation order, ties in response order; store [op] after those
    invoked no later than it, moving the rest up one.  Returns [ops],
    or a copy of twice its length (eight slots when empty) when it is
    full.  Fed operations in response order, this builds the order of
    {!operations} with at most [n - 1] moves per operation over [n]
    processes, and allocates only on growth. *)

val pending_invocations : ('msg, 'inv, 'resp) t -> (int * 'inv) list
(** Invocations that never received a response (non-empty only for
    truncated runs), sorted by process id. *)

val is_pending : ('msg, 'inv, 'resp) t -> int -> bool
(** [is_pending t proc]: has [proc] an invocation with no response
    yet?  O(1), from the pairing sink, and [false] for a process never
    seen.  Once the history is ill-formed the pairing sink stops, and
    this answers for the events before that; the engine, which never
    records an ill-formed history, asks this instead of keeping its
    own table. *)

val pending_invocation : ('msg, 'inv, 'resp) t -> int -> 'inv
(** The invocation pending at [proc].
    @raise Invalid_argument unless {!is_pending}. *)

val message_delays : ('msg, 'inv, 'resp) t -> (int * int * Rat.t) list
(** [(src, dst, delay)] for every message sent.
    @raise Invalid_argument if retention is disabled. *)

val delays_admissible : Model.t -> ('msg, 'inv, 'resp) t -> bool
(** Were all message delays within [[d - u, d]]?  O(1), answered from
    the delay envelope; works with retention off. *)

val first_inadmissible : ('msg, 'inv, 'resp) t -> violation option
(** The first delay the monitor saw outside the model's bounds. *)

val event_time : ('msg, 'inv, 'resp) event -> Rat.t

val last_time : ('msg, 'inv, 'resp) t -> Rat.t
(** Real time of the last recorded event; [Rat.zero] for an empty
    trace.  Mirrors the paper's [last-time] of a finite run. *)

val event_count : ('msg, 'inv, 'resp) t -> int
val send_count : ('msg, 'inv, 'resp) t -> int
val deliver_count : ('msg, 'inv, 'resp) t -> int

val fault_counts : ('msg, 'inv, 'resp) t -> fault_counts
(** Injected-fault counters (all zero for fault-free runs); O(1) and
    maintained with retention off. *)

val operation_count : ('msg, 'inv, 'resp) t -> int
(** Completed operations, from the pairing sink (O(1)).
    @raise Invalid_argument on an ill-formed history. *)

val pending_count : ('msg, 'inv, 'resp) t -> int
(** Operations invoked but not yet responded (O(1)).
    @raise Invalid_argument on an ill-formed history. *)
