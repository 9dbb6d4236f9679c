(** Exact rational arithmetic over machine integers.

    All simulated time values, message delays, clock offsets and shift
    amounts in this repository are rationals.  The paper's shifting
    arguments manipulate quantities such as [u/4], [(1 - 1/k) * u] and
    [d/3]; carrying them exactly keeps the admissibility checks
    (delays within [[d - u, d]], skew at most [epsilon]) free of
    floating-point noise.

    Values are kept normalized: the denominator is positive and the
    numerator and denominator are coprime.  Numerators and denominators
    are OCaml [int]s (63-bit); simulation-scale arithmetic stays far
    from overflow, and {!make} raises on a zero denominator.

    Integer-valued rationals (denominator 1) are carried unboxed, as
    immediate machine ints, and their arithmetic is plain checked int
    arithmetic — no allocation, no gcd — promoting to the exact
    gcd-reduced cross-multiplication path only when a true fraction is
    involved.  The representation is canonical, so structural equality
    and polymorphic hashing agree with {!equal} and {!hash}.

    Overflow is never silent: intermediates are reduced by gcd before
    cross-multiplying, comparison falls back to an exact
    continued-fraction descent when the cross products would wrap, and
    the arithmetic operations (including {!neg}, {!abs} and {!make}'s
    sign normalization at [min_int]) raise {!Overflow} when a result
    cannot be represented in machine integers. *)

type t

exception Overflow
(** Raised by the arithmetic operations ({!add}, {!sub}, {!mul},
    {!div}, {!mul_int}, {!div_int}) when an intermediate or the result
    exceeds machine-integer range even after gcd reduction.
    {!compare} and friends never raise it — they switch to an exact
    overflow-free algorithm instead. *)

(** {1 Construction} *)

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t

(** {1 Accessors} *)

val num : t -> int
(** Numerator of the normalized form (carries the sign). *)

val den : t -> int
(** Denominator of the normalized form; always positive. *)

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val neg : t -> t
(** @raise Overflow when the numerator is [min_int] ([-min_int] is not
    representable). *)

val abs : t -> t
(** @raise Overflow when the numerator is [min_int]. *)

val mul_int : t -> int -> t
val div_int : t -> int -> t
(** @raise Division_by_zero if the divisor is zero. *)

(** Infix aliases: [a + b] etc. via [Rat.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val lt : t -> t -> bool
val le : t -> t -> bool
val gt : t -> t -> bool
val ge : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool

val clamp : lo:t -> hi:t -> t -> t
(** [clamp ~lo ~hi x] is [x] forced into the closed interval.
    @raise Invalid_argument if [lo > hi]. *)

val in_range : lo:t -> hi:t -> t -> bool
(** Membership in the closed interval [[lo, hi]]. *)

(** {1 Aggregates} *)

val sum : t list -> t
val min_list : t list -> t
(** @raise Invalid_argument on the empty list. *)

val max_list : t list -> t
(** @raise Invalid_argument on the empty list. *)

(** {1 Conversions and printing} *)

val to_float : t -> float
val to_string : t -> string
(** ["7/3"], or ["7"] when the denominator is 1. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s rendering, digit by digit, building no
    string.  The one writer of decimal digits: integers are written as
    [add_to_buffer b (of_int n)]. *)

val pp : Format.formatter -> t -> unit
val hash : t -> int
