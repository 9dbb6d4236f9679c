(** Operation timestamps (paper §5.1): the pair (local invocation clock
    time, invoking process id), ordered lexicographically.

    Process ids break ties, so timestamps of distinct operations are
    distinct; timestamps assigned at one process strictly increase
    because operations there are sequential and take positive time.
    Algorithm 1 executes all mutators in timestamp order at every
    replica. *)

type t = { time : Rat.t; proc : int }

val make : time:Rat.t -> proc:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val le : t -> t -> bool
val pp : Format.formatter -> t -> unit

val none : t
(** [(0, -1)]: process ids are never negative, so this equals no
    operation's timestamp — the "nothing awaited" value of a field
    that would otherwise hold a [t option]. *)

val order :
  n:int ->
  time:(int -> Rat.t) ->
  proc:(int -> int) ->
  late:(int -> bool) ->
  int array
(** The indices [0, n) in timestamp order [(time i, proc i)]; at an
    equal timestamp an index with [late i] goes after one without, and
    the lower index goes first otherwise.  The order is total, so the
    order of a subsequence of a history is the order of the whole
    restricted to it.
    This is how Algorithm 1 and the total-order baseline hand the order
    they linearized a run in to the verifier: [i] is an operation's
    position in the history, [time i] its (local-clock) timestamp. *)

(** A mutable min-heap keyed by timestamp: the [To_Execute] priority
    queues of Algorithm 1 and of the total-order-broadcast baseline.
    Neither ever needs more than "add" and "pop every entry up to a
    timestamp, smallest first", and both run once per mutator at every
    replica, so adds and pops write arrays in place instead of copying
    a path of a persistent map.  Beside its value, each entry carries
    the id of the execute timer set when it was queued, so that queueing
    a copy allocates no record to pair the two. *)
module Heap : sig
  type key = t
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int

  val add : 'a t -> key -> id:int -> 'a -> unit
  (** [add h ts ~id v] inserts an entry with timer id [id].  If an entry
      with an equal timestamp is already queued, its id and value are
      replaced instead, as a map would — a duplicated message arriving
      before its original was executed is queued once. *)

  val drain :
    'a t ->
    upto:key ->
    ('x -> 'y -> key -> int -> 'a -> unit) ->
    'x ->
    'y ->
    unit
  (** [drain h ~upto f x y] removes every entry with timestamp [<= upto]
      in increasing timestamp order, calling [f x y ts id v] on each
      just after it is removed.  Passing the context as [x] and [y]
      instead of closing [f] over it lets a caller drain without
      allocating. *)
end
