(** Filesystem leases for spool workers.

    A lease on [name] is the file [name.lease] in the lease directory,
    created atomically via link(2) — exactly one of several
    simultaneous claimants wins, even on a shared filesystem.  The
    holder heartbeats by bumping the file's mtime ({!renew}); a lease
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

val renew : t -> unit
(** Heartbeat: stamp the lease's mtime to now (errors ignored — a
    vanished lease file means we lost it, and the journal makes the
    duplicated work harmless). *)

val release : t -> unit

val backdate : dir:string -> age_s:float -> string -> unit
(** Test hook: make [name]'s lease look [age_s] seconds stale. *)
