(* Filesystem leases for spool workers.

   Claiming must be atomic across processes (and across machines on a
   shared filesystem), so the primitive is link(2): write a private tmp
   file, then hard-link it to the lease path — link fails with EEXIST
   when somebody else holds the lease, and exactly one of several
   simultaneous claimants wins.  rename(2) is NOT used to claim (POSIX
   rename silently replaces an existing target); it is used only for
   stale-lease takeover, where "replace the old lease, exactly one
   winner" is precisely the semantics wanted: every stealer renames the
   stale lease to its own private grave name, the single winner's
   rename succeeds and the losers get ENOENT.

   Liveness is a heartbeat on the lease's mtime ([renew], called by the
   holder between long cells); a lease whose mtime is older than the
   ttl is presumed held by a dead worker and may be taken over.  A
   takeover can race a *slow* (not dead) worker — that is safe here
   because cells are deterministic and the journal's last-record-wins
   replay makes duplicate execution idempotent. *)

type t = { path : string; owner : string }

let owner t = t.owner
let path t = t.path

let lease_path ~dir name = Filename.concat dir (name ^ ".lease")

let write_tmp ~dir ~owner name =
  let tmp =
    Filename.concat dir (Printf.sprintf ".claim.%s.%s" owner name)
  in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 tmp
  in
  output_string oc (Printf.sprintf "%s %d\n" owner (Unix.getpid ()));
  close_out oc;
  tmp

type claim_result = Acquired of t | Taken_over of t | Held

let rec claim_attempt ~dir ~owner ~ttl_s ~tries name =
  let path = lease_path ~dir name in
  let tmp = write_tmp ~dir ~owner name in
  let acquired =
    match Unix.link tmp path with
    | () -> true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  if acquired then Some false
  else if tries <= 0 then None
  else
    match Unix.stat path with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
        (* Released between our link and stat: claim it fresh. *)
        claim_attempt ~dir ~owner ~ttl_s ~tries:(tries - 1) name
    | st ->
        (* Wall time, not Core.Clock: it is compared with file mtimes. *)
        if Unix.gettimeofday () -. st.Unix.st_mtime <= ttl_s then None
        else begin
          (* Stale: exactly one stealer wins the rename; losers see
             ENOENT and retry (the winner holds a fresh lease, so their
             retry reports Held). *)
          let grave =
            Filename.concat dir
              (Printf.sprintf ".stale.%s.%s" owner name)
          in
          match Unix.rename path grave with
          | () ->
              (try Sys.remove grave with Sys_error _ -> ());
              (match
                 claim_attempt ~dir ~owner ~ttl_s ~tries:(tries - 1) name
               with
              | Some _ -> Some true
              | None -> None)
          | exception Unix.Unix_error _ ->
              claim_attempt ~dir ~owner ~ttl_s ~tries:(tries - 1) name
        end

let claim ~dir ~owner ~ttl_s name =
  match claim_attempt ~dir ~owner ~ttl_s ~tries:2 name with
  | Some took_over ->
      let t = { path = lease_path ~dir name; owner } in
      if took_over then Taken_over t else Acquired t
  | None -> Held

let renew t =
  (* utimes with 0.0 0.0 stamps "now" — the heartbeat. *)
  try Unix.utimes t.path 0.0 0.0 with Unix.Unix_error _ -> ()

let release t = try Sys.remove t.path with Sys_error _ -> ()

(* Test hook: age a lease as if its holder stopped heartbeating
   [age_s] seconds ago. *)
let backdate ~dir ~age_s name =
  let path = lease_path ~dir name in
  let t = Unix.gettimeofday () -. age_s in
  try Unix.utimes path t t with Unix.Unix_error _ -> ()
