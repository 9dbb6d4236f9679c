(** Fixed domain pool over a bounded, indexed work queue.

    [map ~jobs ~fail_fast ~n f] evaluates [f i] for every [i] in
    [0 .. n-1], sharding indices across [jobs] OCaml domains (inline on
    the calling domain when [jobs = 1]).  There is no per-domain state:
    callers fold over the returned outcomes after the barrier.

    Outcomes are positional: escaped exceptions become [Failed] with
    the exception's rendering.  Under [fail_fast], the first failure
    stops the pool promptly — in-flight cells complete and keep their
    outcome, unclaimed cells are left [Skipped]; no report is lost.
    [should_stop] (default: never) is polled before each claim and
    stops the pool the same graceful way, for external cancellation
    (SIGINT, deadlines, tests).

    [f]'s behaviour must depend only on its index (derive randomness
    from the work item's coordinates, never from [Domain.self ()]); the
    outcome array is then identical for every [jobs] count. *)

type 'a outcome = Done of 'a | Failed of string | Skipped

val map :
  ?should_stop:(unit -> bool) ->
  jobs:int ->
  fail_fast:bool ->
  n:int ->
  (int -> ('r, string) result) ->
  'r outcome array
(** The worker function is positional so the optional [should_stop]
    stays erasable. *)

(** Process-wide graceful-shutdown flag wired to SIGINT/SIGTERM.

    {!install} registers handlers that flip an atomic flag (readable
    via {!requested}, suitable as [should_stop]) and then restore the
    default disposition, so a second signal force-kills the process. *)
module Interrupt : sig
  val install : unit -> unit
  val requested : unit -> bool
end
