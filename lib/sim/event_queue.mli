(** Binary min-heap priority queue for simulation events.

    Events are ordered by [(time, priority, sequence)] where the
    sequence number is assigned on insertion; ties in time and priority
    therefore pop in FIFO order, which makes simulation runs
    deterministic.

    Each slot is flat: besides its payload, an event carries an integer
    [kind] and two integer fields [fst] and [snd], which the queue
    stores but never interprets.  The engine keeps an event's type and
    its process ids there, so an event costs no block of its own, and
    {!push} and {!pop_min} allocate nothing; the simulator's main loop
    runs one push and one pop per dispatched event. *)

type 'a t

val create : unit -> 'a t

val push :
  'a t -> priority:int -> time:Rat.t -> kind:int -> fst:int -> snd:int -> 'a -> unit
(** Insert an event.  Events are ordered by [(time, priority, seq)]:
    lower [priority] values pop first among equal times.  The engine
    uses priority [0] for message deliveries and [1] for everything
    else, so that a message whose delay makes it arrive exactly when a
    timer fires is visible to the timer's handler — delays are drawn
    from the closed interval [[d - u, d]], so boundary arrivals are
    legitimate.  [kind], [fst] and [snd] are carried along unread. *)

val pop : 'a t -> (Rat.t * 'a) option
(** Remove and return the earliest event, FIFO among equal times. *)

val min_time : 'a t -> Rat.t
(** Time of the earliest event, without removing it and without
    allocating.  @raise Invalid_argument on an empty queue. *)

val min_kind : 'a t -> int
val min_fst : 'a t -> int

val min_snd : 'a t -> int
(** The earliest event's [kind], [fst] and [snd], read like
    {!min_time}.  @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload (the allocation-free
    variant of {!pop}; read {!min_time} and the int fields first).
    @raise Invalid_argument on an empty queue. *)

val peek_time : 'a t -> Rat.t option

val is_empty : 'a t -> bool

val length : 'a t -> int
