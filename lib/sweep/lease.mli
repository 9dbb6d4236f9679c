(** Filesystem leases for spool workers.

    A lease on [name] is the file [name.lease] in the lease directory,
    created atomically via link(2) — exactly one of several
    simultaneous claimants wins, even on a shared filesystem.  The
    holder heartbeats by bumping the file's mtime ({!Heartbeat}); a lease
    whose mtime is older than the ttl is presumed dead and may be
    taken over (a rename(2) race with a single winner).  Takeover can
    duplicate work of a slow-but-alive holder; callers must make cell
    execution idempotent (deterministic cells + last-record-wins
    journals do). *)

type t

val owner : t -> string

type claim_result =
  | Acquired of t  (** fresh claim *)
  | Taken_over of t  (** claimed after evicting a stale holder *)
  | Held  (** somebody else holds a live lease *)

val claim : dir:string -> owner:string -> ttl_s:float -> string -> claim_result
(** [claim ~dir ~owner ~ttl_s name] tries to take the lease on [name],
    evicting a holder whose heartbeat is older than [ttl_s] seconds. *)

val release : t -> unit

(** One heartbeat domain for a worker's whole session: it renews
    (stamps the mtime of) whichever lease the worker holds at the
    moment, so a cell of any length keeps its lease fresh without a
    domain of its own.  A failed renewal is ignored: a vanished lease
    file means the lease was lost, and the journal makes the duplicated
    work harmless. *)
module Heartbeat : sig
  type lease := t
  type t

  val start : interval_s:float -> t
  (** Spawn the domain; every [interval_s] seconds (counted in 50 ms
      slices) it renews the held lease, if any. *)

  val hold : t -> lease -> unit
  (** Renew this lease from now on, instead of the one held before. *)

  val drop : t -> unit
  (** Renew nothing from now on; once this returns, no renewal is in
      flight, so the dropped lease can be released. *)

  val stop : t -> unit
  (** Drop, then stop and join the domain (waiting at most one 50 ms
      slice). *)
end

val backdate : dir:string -> age_s:float -> string -> unit
(** Test hook: make [name]'s lease look [age_s] seconds stale. *)
