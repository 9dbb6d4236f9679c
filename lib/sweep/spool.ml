(* Shared-spool campaign execution: N worker processes split one grid.

   Layout of a spool directory:

     MANIFEST             grid fingerprint, created atomically once;
                          every worker and the merge validate it so
                          two different grids can never share a spool
     leases/c000042.lease link(2)-claimed, mtime-heartbeated (Lease)
     done/c000042.done    tmp+rename marker: cell journaled durably
     journals/W.journal   per-worker Journal of (verdict|diag) records

   A worker scans the cell index in order, claims un-done cells one at
   a time, evaluates, journals + fsyncs, writes the done marker, and
   releases the lease; when a full pass finds nothing claimable it
   polls until every done marker exists (other workers still own
   leases) or it is stopped.  A cell whose worker died mid-flight is
   recovered by stale-lease takeover; because cells are deterministic
   and journal replay is last-record-wins, the duplicate execution a
   takeover can cause is harmless.

   [merge] replays every worker journal through the same runner a
   single process uses, and refuses while any cell lacks a record with
   a matching input fingerprint — so the merged fingerprint is
   byte-identical to a non-spool run. *)

let manifest_name = "MANIFEST"
let cell_name i = Printf.sprintf "c%06d" i

let grid_fingerprint grid =
  let cells = Engine.cells grid in
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Buffer.add_string buf (Engine.cell_key grid c);
      Buffer.add_char buf '\n')
    cells;
  Printf.sprintf "cells=%d;fp=%08x" (List.length cells)
    (Core.Hash.fnv1a (Buffer.contents buf))

let init ~dir grid =
  Journal.mkdir_p dir;
  List.iter
    (fun d -> Journal.mkdir_p (Filename.concat dir d))
    [ "leases"; "journals"; "done" ];
  let manifest = Filename.concat dir manifest_name in
  let want = grid_fingerprint grid ^ "\n" in
  let tmp = Filename.concat dir (Printf.sprintf ".manifest.%d" (Unix.getpid ())) in
  let oc = open_out tmp in
  output_string oc want;
  close_out oc;
  let created =
    match Unix.link tmp manifest with
    | () -> true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  if created then Ok ()
  else
    let ic = open_in_bin manifest in
    let got =
      try really_input_string ic (in_channel_length ic) with _ -> ""
    in
    close_in ic;
    if got = want then Ok ()
    else
      Error
        (Printf.sprintf
           "spool %s holds a different campaign (MANIFEST %s, this grid %s)"
           dir (String.trim got) (String.trim want))

let done_path ~dir i =
  Filename.concat (Filename.concat dir "done") (cell_name i ^ ".done")

let status ~dir grid =
  match init ~dir grid with
  | Error _ as e -> e
  | Ok () ->
      let n = List.length (Engine.cells grid) in
      let d = ref 0 in
      for i = 0 to n - 1 do
        if Sys.file_exists (done_path ~dir i) then incr d
      done;
      Ok (!d, n)

type worker_report = {
  worker : string;
  completed : int;  (** cells this worker evaluated and journaled *)
  failed : int;  (** of those, cells that produced a diagnostic *)
  takeovers : int;  (** stale leases evicted *)
  interrupted : bool;
}

let default_worker_id () =
  Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())

let worker ?worker_id ?wall_budget_s ?should_stop ?(sync_every = 1)
    ?(lease_ttl_s = 60.0) ?code_fp ~dir grid =
  (* A nan interval would spin the heartbeat, and a ttl of 0 or less
     would make every live lease read as stale. *)
  if not (lease_ttl_s > 0.) then
    invalid_arg
      (Printf.sprintf "Sweep.Spool.worker: lease_ttl_s = %g is not positive"
         lease_ttl_s);
  match init ~dir grid with
  | Error _ as e -> e
  | Ok () ->
      let owner =
        match worker_id with Some w -> w | None -> default_worker_id ()
      in
      let cells = Array.of_list (Engine.cells grid) in
      let n = Array.length cells in
      let input_fp = Engine.key_fingerprint ?code_fp grid in
      let leases = Filename.concat dir "leases" in
      let done_dir = Filename.concat dir "done" in
      let jpath =
        Filename.concat (Filename.concat dir "journals") (owner ^ ".journal")
      in
      let w =
        Journal.writer ~sync_every ~path:jpath ~fp:Engine.journal_header ()
      in
      (* One heartbeat for the session, renewing the lease of the cell
         in flight every ttl/4, so a multi-minute cell does not look
         dead to other workers. *)
      let heartbeat =
        Lease.Heartbeat.start ~interval_s:(Float.max 0.05 (lease_ttl_s /. 4.0))
      in
      let stopped () =
        match should_stop with Some f -> f () | None -> false
      in
      let completed = ref 0 and failed = ref 0 and takeovers = ref 0 in
      let progress = ref false in
      let mark_done i =
        let tmp =
          Filename.concat done_dir (Printf.sprintf ".%s.%s" owner (cell_name i))
        in
        let oc = open_out tmp in
        output_string oc (owner ^ "\n");
        close_out oc;
        (* rename, not link: markers are idempotent (a takeover may
           write one that a slow first owner rewrites) — last write
           wins and both say "this cell is journaled somewhere". *)
        Unix.rename tmp (done_path ~dir i)
      in
      let run_cell i lease =
        Lease.Heartbeat.hold heartbeat lease;
        Fun.protect
          ~finally:(fun () ->
            Lease.Heartbeat.drop heartbeat;
            Lease.release lease)
          (fun () ->
            let key = Engine.cell_key grid cells.(i) in
            let r = Engine.eval ?wall_budget_s ~key grid cells.(i) in
            Journal.append w ~key ~input_fp:(input_fp key) r;
            Journal.flush w;
            incr completed;
            (match r with Error _ -> incr failed | Ok _ -> ());
            mark_done i)
      in
      let try_cell i =
        if not (Sys.file_exists (done_path ~dir i)) then
          match Lease.claim ~dir:leases ~owner ~ttl_s:lease_ttl_s (cell_name i) with
          | Lease.Held -> ()
          | Lease.Acquired lease ->
              progress := true;
              if Sys.file_exists (done_path ~dir i) then Lease.release lease
              else run_cell i lease
          | Lease.Taken_over lease ->
              incr takeovers;
              progress := true;
              if Sys.file_exists (done_path ~dir i) then Lease.release lease
              else run_cell i lease
      in
      let all_done () =
        let rec go i =
          i >= n || (Sys.file_exists (done_path ~dir i) && go (i + 1))
        in
        go 0
      in
      Fun.protect
        ~finally:(fun () ->
          Lease.Heartbeat.stop heartbeat;
          Journal.close w)
        (fun () ->
          let rec passes () =
            if (not (stopped ())) && not (all_done ()) then begin
              progress := false;
              let i = ref 0 in
              while !i < n && not (stopped ()) do
                try_cell !i;
                incr i
              done;
              if (not (stopped ())) && not (all_done ()) then begin
                if not !progress then Unix.sleepf 0.25;
                passes ()
              end
            end
          in
          passes ();
          Ok
            {
              worker = owner;
              completed = !completed;
              failed = !failed;
              takeovers = !takeovers;
              interrupted = stopped ();
            })

let merge ?code_fp ~dir grid =
  match init ~dir grid with
  | Error _ as e -> e
  | Ok () ->
      let jdir = Filename.concat dir "journals" in
      let replay =
        Sys.readdir jdir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".journal")
        |> List.sort compare
        |> List.map (Filename.concat jdir)
      in
      (* A cell no worker journaled (or journaled under a stale input
         fingerprint) is one the runner would have to evaluate; the
         merge refuses to instead of fabricating a verdict. *)
      let t =
        Engine.execute ?code_fp ~jobs:1 ~fail_fast:false ~should_stop:None
          ~journal:
            (Some
               {
                 Runner.header = Engine.journal_header;
                 replay;
                 append = None;
                 sync_every = 1;
                 replay_failures = true;
               })
          ~eval:(fun ~key:_ _ -> Error "not journaled")
          grid
      in
      if t.resume.executed > 0 then
        Error
          (Printf.sprintf
             "spool %s: %d of %d cells not yet journaled (run more workers, \
              then --merge)"
             dir t.resume.executed (Array.length t.cells))
      else Ok t
