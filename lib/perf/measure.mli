(** Deterministic performance measurement.

    Wall-clock time on a shared machine is noise; this module measures
    what is reproducible.  The primary metrics are the GC's allocation
    counters ([minor_words] and friends), which for a deterministic
    workload are {e byte-identical} across runs provided the
    measurement is the first one taken in a fresh process — later
    measurements in the same process drift slightly with inherited
    heap state, which is why {!Suite} sections are run one per
    subprocess by [repro bench].

    When the kernel allows it, a hardware instructions-retired counter
    (perf_event_open) is read as well; it is close to deterministic
    but not exactly so, and is reported for information only — the
    regression gate never keys on it.  Wall time is read from the
    monotonic clock ([CLOCK_MONOTONIC]), immune to wall-clock steps,
    and is likewise informational. *)

type metrics = {
  wall_ns : int;  (** monotonic elapsed time; informational only *)
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  instructions : int64 option;
      (** user-mode instructions retired, when the counter is
          available; informational only *)
}

val monotonic_ns : unit -> int
(** Nanoseconds on the monotonic clock.  Only differences are
    meaningful. *)

val measure : (unit -> 'a) -> 'a * metrics
(** [measure f] runs [f ()] and returns its result together with the
    deltas of every metric across the call.  No GC is forced before
    or after: determinism comes from the workload, not from heap
    grooming. *)
