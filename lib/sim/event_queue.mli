(** Binary min-heap priority queue for simulation events.

    Events are ordered by [(time, priority, sequence)] where the
    sequence number is assigned on insertion; ties in time and priority
    therefore pop in FIFO order, which makes simulation runs
    deterministic.

    Each slot is flat: besides its time and payload, an event carries
    one integer [tag], which the queue stores but never interprets.
    The engine packs an event's kind and its process ids there (see
    {!Engine}), so an event costs no block of its own, and {!push} and
    {!pop_min} allocate nothing; the simulator's main loop runs one
    push and one pop per dispatched event.  The queue keeps four
    arrays — times, order keys, tags and payloads — so growing it
    allocates exactly four. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> priority:int -> time:Rat.t -> tag:int -> 'a -> unit
(** Insert an event.  Events are ordered by [(time, priority, seq)]:
    lower [priority] values pop first among equal times.  The engine
    uses priority [0] for message deliveries and [1] for everything
    else, so that a message whose delay makes it arrive exactly when a
    timer fires is visible to the timer's handler — delays are drawn
    from the closed interval [[d - u, d]], so boundary arrivals are
    legitimate.  [tag] is any int, carried along unread.
    @raise Invalid_argument if [priority] is neither [0] nor [1]. *)

val pop : 'a t -> (Rat.t * 'a) option
(** Remove and return the earliest event, FIFO among equal times. *)

val min_time : 'a t -> Rat.t
(** Time of the earliest event, without removing it and without
    allocating.  @raise Invalid_argument on an empty queue. *)

val min_tag : 'a t -> int
(** The earliest event's [tag], read like {!min_time}.
    @raise Invalid_argument on an empty queue. *)

val pop_min : 'a t -> 'a
(** Remove and return the earliest event's payload (the allocation-free
    variant of {!pop}; read {!min_time} and {!min_tag} first).
    @raise Invalid_argument on an empty queue. *)

val peek_time : 'a t -> Rat.t option

val is_empty : 'a t -> bool

val length : 'a t -> int
