(** Discrete-event simulation engine for the paper's system model (§2.2).

    The engine drives [n] processes, each a state machine whose
    transitions are triggered by exactly the paper's three event kinds:
    the receipt of a message, a timer going off, and the invocation of
    an operation instance.  Each process [p_i] has a drift-free local
    clock [local = real + offsets.(i)].

    Type parameters: ['msg] inter-process messages, ['tag] timer tags,
    ['inv] operation invocations, ['resp] operation responses. *)

type ('msg, 'tag, 'inv, 'resp) t

(** Capabilities available to a process while it handles one event.
    Algorithms should consult only {!field-local_time}; [real_time] is
    exposed for instrumentation and assertions.

    The engine reuses one ctx across all events and processes,
    re-stamping [self] and the two clock fields before each handler
    runs (they are [mutable] for exactly that reason — treat them as
    read-only); its closures act for the process being dispatched.  A
    ctx is therefore only valid for the duration of the handler call it
    was passed to: a handler that stores it and uses it later acts for,
    and observes the times of, some later event. *)
type ('msg, 'tag, 'resp) ctx = {
  mutable self : int;
  n : int;
  mutable real_time : Rat.t;
  mutable local_time : Rat.t;
  send : dst:int -> 'msg -> unit;
  broadcast : 'msg -> unit;  (** send to every process except [self] *)
  set_timer_after : Rat.t -> 'tag -> int;
      (** [set_timer_after dur tag] schedules a timer [dur] time units
          from now (durations are identical in local and real time since
          clocks do not drift); returns a timer id for cancellation.
          Ids count up from 0 over the run; the [2^40]th timer is
          refused with [Invalid_argument] (see {!Tag}). *)
  cancel_timer : int -> unit;
      (** Cancel a timer that has not fired yet.  Cancelling a timer
          that has already fired or been cancelled, or an id never
          issued, changes nothing; every call is still recorded as a
          {!Trace.Timer_cancel} event. *)
  respond : 'resp -> unit;
      (** Complete the pending operation at this process.
          @raise Invalid_argument if no operation is pending. *)
}

type ('msg, 'tag, 'inv, 'resp) handlers = {
  on_invoke : ('msg, 'tag, 'resp) ctx -> 'inv -> unit;
  on_receive : ('msg, 'tag, 'resp) ctx -> src:int -> 'msg -> unit;
  on_timer : ('msg, 'tag, 'resp) ctx -> 'tag -> unit;
}

(** {1 Event tags}

    A queued event is one {!Event_queue} slot.  Its kind (invocation,
    delivery or timer) and its two ints — the process, and the
    destination of a delivery or the id of a timer — travel packed
    into the slot's one int tag as
    [kind lor (fst lsl 2) lor (snd lsl 22)]: 2 bits of kind, 20 of
    process and 40 above them.  A run therefore has fewer than [2^20]
    processes, which {!create} checks before anything else, and issues
    fewer than [2^40] timers, which [set_timer_after] checks. *)
module Tag : sig
  val pack : kind:int -> fst:int -> snd:int -> int
  (** [kind] in [[0, 3]], [fst] in [[0, 2^20)], [snd] in
      [[0, 2^40)]; unchecked. *)

  val kind : int -> int
  val fst : int -> int
  val snd : int -> int
end

val create :
  ?retain_events:bool ->
  ?faults:Fault.plan ->
  model:Model.t ->
  offsets:Rat.t array ->
  delay:Net.t ->
  handlers:('msg, 'tag, 'inv, 'resp) handlers ->
  unit ->
  ('msg, 'tag, 'inv, 'resp) t
(** The engine records every event into the trace's sink multiplexer;
    [retain_events] (default [true]) is forwarded to {!Trace.create},
    and the trace's admissibility monitor is armed with [model].
    Disable retention for large closed-loop runs: all counters,
    pairing, latency and admissibility views stay available at
    O(operations) memory.

    [faults] (default {!Fault.none}) is instantiated into a per-run
    injector layered between [delay] and the event queue: each
    transmission may be dropped, duplicated or delay-spiked; processes
    may crash-stop or have their clocks perturbed beyond the validated
    [offsets].  Every injected fault is recorded as a
    {!Trace.Fault} event.
    @raise Invalid_argument if [model.n >= 2^20] (checked first, before
    any allocation sized by [n]), if [offsets] has length other than
    [model.n] or if the offsets violate the model's skew bound
    (fault-plan skew is applied on top and deliberately escapes this
    check).

    The engine's event queue is the domain's spare, left by the last
    {!release} on this domain, or a fresh one when there is none; the
    engine holds it alone until {!release}. *)

val effective_offsets : ('msg, 'tag, 'inv, 'resp) t -> Rat.t array
(** [offsets] plus the fault plan's clock perturbations — the offsets
    processes actually run with.  Equal to [offsets] for fault-free
    runs; may violate the model's skew bound otherwise. *)

val now : ('msg, 'tag, 'inv, 'resp) t -> Rat.t

val schedule_invoke :
  ('msg, 'tag, 'inv, 'resp) t -> at:Rat.t -> proc:int -> 'inv -> unit
(** Schedule an operation invocation at real time [at] (which must not be
    in the past).  The user must respect the at-most-one-pending-operation
    constraint; violating it raises during {!run}.
    @raise Invalid_argument after {!release}. *)

val set_response_callback :
  ('msg, 'tag, 'inv, 'resp) t ->
  (proc:int -> inv:'inv -> resp:'resp -> time:Rat.t -> unit) ->
  unit
(** Called each time an operation completes; may call
    {!schedule_invoke} with [at >= time], enabling closed-loop
    workloads. *)

val cancelled_timers : ('msg, 'tag, 'inv, 'resp) t -> int
(** Number of cancelled timers whose queue entry has not popped yet.
    Only a live timer counts when cancelled, and its entry's pop
    uncounts it, so after a completed {!run} this is 0 — also when
    handlers cancel timers that have already fired, as Algorithm 1's
    execute drain does — which the leak regression tests assert. *)

exception Step_limit_exceeded of int

exception Deadline_exceeded of { events : int }
(** Raised by {!run} when the caller-supplied [deadline] closure
    reports expiry; [events] is the number of events dispatched so
    far.  The engine stays clock-agnostic: the closure decides what
    "expired" means (wall clock, cooperative cancellation, ...). *)

val default_max_events : int
(** The step limit {!run} applies when no [max_events] is given
    (1 000 000). *)

val run :
  ?max_events:int ->
  ?deadline:(unit -> bool) ->
  ('msg, 'tag, 'inv, 'resp) t ->
  unit
(** Process events until the queue drains (the run is then {e complete}
    in the paper's sense: all messages delivered, all timers resolved).

    [deadline] (default: never) is polled on the first dispatched event
    and then every 64th; when it returns [true] the run aborts with
    {!Deadline_exceeded}.  A deadline that is already expired on entry
    therefore aborts deterministically after exactly one event.
    @raise Step_limit_exceeded if more than [max_events] (default
    {!default_max_events}) events are dispatched, which indicates a bug such as a
    timer loop.
    @raise Deadline_exceeded if [deadline] reports expiry.
    @raise Invalid_argument after {!release}. *)

val trace : ('msg, 'tag, 'inv, 'resp) t -> ('msg, 'inv, 'resp) Trace.t

val max_spare_capacity : int
(** The largest queue, in slots, that {!release} keeps (1 024). *)

val release : ('msg, 'tag, 'inv, 'resp) t -> unit
(** Give the engine's event queue back to its domain, once the run is
    over, for the next {!create} there to reuse: the queue is emptied
    ({!Event_queue.reset}), or dropped when it holds more than
    {!max_spare_capacity} slots.  The trace and every other reading
    stay available; {!schedule_invoke} and {!run} are refused with
    [Invalid_argument] from then on.  A second call does nothing.  An
    engine never released costs only its own fresh queue. *)
