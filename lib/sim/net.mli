(** Message delay models.

    A delay model answers "how long does the [seq]-th message from [src]
    to [dst], sent at real time [time], take to arrive?".  The paper's
    lower-bound constructions use {e pair-wise uniform} delays (a fixed
    n-by-n matrix); stress tests use randomized delays drawn from
    [[d - u, d]].  Every model names the values a run must fit in its
    time quantum ({!fold}) and can be rescaled to it ({!scale}). *)

type t

val constant : Rat.t -> t
(** Every message takes exactly the given delay. *)

val matrix : Rat.t array array -> t
(** Pair-wise uniform delays: message from [src] to [dst] always takes
    [m.(src).(dst)].  The matrix must be square. *)

val random : seed:int -> lo:Rat.t -> hi:Rat.t -> granularity:int -> t
(** Delays drawn independently and uniformly from the [granularity + 1]
    evenly spaced rationals spanning [[lo, hi]]: the [k]th is
    [lo + k * (hi - lo) / granularity].  Deterministic for a fixed
    seed.  A draw allocates nothing: integer points are computed, and
    fractional ones are built once, on the first draw.
    @raise Invalid_argument if [granularity <= 0] or [lo > hi]. *)

val random_model : seed:int -> Model.t -> t
(** {!random} spanning the model's admissible interval [[d - u, d]] with
    granularity 16. *)

val max_delay_model : Model.t -> t
(** Every message takes exactly [d]. *)

val min_delay_model : Model.t -> t
(** Every message takes exactly [d - u]. *)

val delay : t -> src:int -> dst:int -> time:Rat.t -> seq:int -> Rat.t
(** Evaluate the model.
    @raise Invalid_argument for out-of-range indices of a {!matrix}. *)

val fold : (Rat.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over delay values that bound every value the model can
    return: the constant, every matrix entry (diagonal included), or a
    grid's first two points and its last.  The lcm of their
    denominators is that of every value the model returns, and the
    largest of their magnitudes is the largest of every value's. *)

val scale : int -> t -> t
(** The same model with every delay value multiplied by [k].  A scaled
    {!random} model shares the original's random state, so the two draw
    one stream of grid indices between them: a run given the scaled
    model draws the same indices the original would have. *)

val uniform_matrix : n:int -> Rat.t -> Rat.t array array
(** Fresh [n]-by-[n] matrix filled with one delay value. *)

val matrix_valid : Model.t -> Rat.t array array -> bool
(** Are all entries within the model's admissible range? (Diagonal
    entries are ignored: processes do not send to themselves.) *)

val pp_matrix : Format.formatter -> Rat.t array array -> unit
