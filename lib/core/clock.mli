(** The one clock for wall measurements: [CLOCK_MONOTONIC], which never
    steps when the system clock is adjusted.  Only differences are
    meaningful. *)

val monotonic_ns : unit -> int
(** Nanoseconds on the monotonic clock. *)

val now_s : unit -> float
(** {!monotonic_ns} in seconds. *)
