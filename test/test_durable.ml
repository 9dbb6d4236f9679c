(* Tests for durable campaigns: the checksummed checkpoint journal
   (torn tails and flipped bytes cost at most one record), crash-safe
   resume with byte-identical fingerprints at every interruption
   point, input-fingerprint invalidation, the per-cell wall budget's
   named Cell_timeout diagnostic (one evaluation per cell), and the
   shared-spool worker protocol (lease takeover from a dead worker,
   multi-worker split, merge equivalence). *)

let packed key =
  match Sweep.Packed_type.find key with
  | Some pt -> pt
  | None -> Alcotest.failf "unknown packed type %s" key

let contains haystack needle =
  let nlen = String.length needle and hlen = String.length haystack in
  let rec at i =
    i + nlen <= hlen && (String.sub haystack i nlen = needle || at (i + 1))
  in
  at 0

let temp_dir =
  let counter = ref 0 in
  fun prefix ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !counter)
    in
    Sweep.Journal.mkdir_p dir;
    dir

(* 12 cells: one type x 3 algorithms x 2 points x raw/recovered. *)
let small_grid = { Sweep.default_grid with types = [ packed "queue" ] }
let n_cells = List.length (Sweep.cells small_grid)

(* One cell, for the timeout diagnostic's test. *)
let one_cell_grid =
  {
    small_grid with
    algos = [ Sweep.Tob ];
    points = [ List.hd Sweep.default_points ];
    legs = [ Sweep.Raw ];
  }

(* Deterministic interruption: the pool polls [should_stop] exactly
   once per claim when [jobs = 1], so this closure stops the campaign
   after [j] cells have been claimed. *)
let stop_after j =
  let calls = ref 0 in
  fun () ->
    incr calls;
    !calls > j

let file_size path = (Unix.stat path).Unix.st_size

(* ---------------- journal framing ---------------- *)

let test_journal_roundtrip () =
  let dir = temp_dir "journal-rt" in
  let path = Filename.concat dir "j" in
  let w = Sweep.Journal.writer ~path ~fp:"test-journal 1" () in
  for i = 0 to 9 do
    Sweep.Journal.append w ~key:(string_of_int i) ~input_fp:(i * 7)
      (i, Printf.sprintf "payload-%d" i)
  done;
  Sweep.Journal.close w;
  let records, diags = Sweep.Journal.load ~path ~fp:"test-journal 1" in
  Alcotest.(check int) "no diagnostics" 0 (List.length diags);
  Alcotest.(check int) "all records back" 10 (List.length records);
  List.iteri
    (fun i (r : _ Sweep.Journal.record) ->
      Alcotest.(check string) "key" (string_of_int i) r.Sweep.Journal.key;
      Alcotest.(check int) "input_fp" (i * 7) r.Sweep.Journal.input_fp;
      Alcotest.(check (pair int string))
        "payload"
        (i, Printf.sprintf "payload-%d" i)
        r.Sweep.Journal.payload)
    records

let test_journal_torn_tail () =
  let dir = temp_dir "journal-torn" in
  let path = Filename.concat dir "j" in
  let w = Sweep.Journal.writer ~path ~fp:"test-journal 1" () in
  for i = 0 to 4 do
    Sweep.Journal.append w ~key:(string_of_int i) ~input_fp:i i
  done;
  Sweep.Journal.close w;
  (* Tear the last record mid-frame, as a crash mid-append would. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (file_size path - 3);
  Unix.close fd;
  let records, diags = Sweep.Journal.load ~path ~fp:"test-journal 1" in
  Alcotest.(check int) "valid prefix survives" 4 (List.length records);
  Alcotest.(check int) "one named diagnostic" 1 (List.length diags);
  (* Reopening for append truncates the torn record 4, so the next
     append lands right after the valid prefix instead of being
     shadowed by garbage. *)
  let w = Sweep.Journal.writer ~path ~fp:"test-journal 1" () in
  Sweep.Journal.append w ~key:"5" ~input_fp:5 5;
  Sweep.Journal.close w;
  let records, diags = Sweep.Journal.load ~path ~fp:"test-journal 1" in
  Alcotest.(check int) "healed: no diagnostics" 0 (List.length diags);
  Alcotest.(check (list int))
    "valid prefix + fresh append, torn record gone" [ 0; 1; 2; 3; 5 ]
    (List.map (fun (r : _ Sweep.Journal.record) -> r.Sweep.Journal.payload)
       records)

let test_journal_flipped_byte () =
  let dir = temp_dir "journal-flip" in
  let path = Filename.concat dir "j" in
  let w = Sweep.Journal.writer ~path ~fp:"test-journal 1" () in
  for i = 0 to 2 do
    Sweep.Journal.append w ~key:(string_of_int i) ~input_fp:i i
  done;
  Sweep.Journal.close w;
  (* Flip a byte in the last record's payload: the checksum must catch
     it and the scan must keep the records before it. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let pos = file_size path - 1 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let records, diags = Sweep.Journal.load ~path ~fp:"test-journal 1" in
  Alcotest.(check int) "records before the flip survive" 2
    (List.length records);
  match diags with
  | [ d ] ->
      Alcotest.(check bool) "diagnostic names the checksum" true
        (contains (Sweep.Journal.diagnostic_to_string d) "checksum")
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let test_journal_header_mismatch () =
  let dir = temp_dir "journal-hdr" in
  let path = Filename.concat dir "j" in
  let w = Sweep.Journal.writer ~path ~fp:"schema A" () in
  Sweep.Journal.append w ~key:"k" ~input_fp:0 0;
  Sweep.Journal.close w;
  let records, diags = Sweep.Journal.load ~path ~fp:"schema B" in
  Alcotest.(check int) "no records across schemas" 0 (List.length records);
  Alcotest.(check int) "header mismatch reported" 1 (List.length diags)

(* ---------------- durable resume ---------------- *)

let fresh_fingerprint = lazy (Sweep.fingerprint (Sweep.run small_grid))

(* Interrupt a durable campaign after [j] cells, optionally tear the
   journal tail (as a crash mid-append would), resume, and require the
   resumed fingerprint to be byte-identical to an uninterrupted
   run's. *)
let interrupted_resume_identical ~tear j =
  let dir = temp_dir "resume" in
  let t1 =
    Sweep.run_durable ~should_stop:(stop_after j) ~code_fp:"T" ~dir small_grid
  in
  if not t1.Sweep.resume.Sweep.interrupted then
    Alcotest.fail "campaign should report the interruption";
  let path = Filename.concat dir "journal" in
  if tear && file_size path > 40 then begin
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd (file_size path - 5);
    Unix.close fd
  end;
  let t2 = Sweep.run_durable ~code_fp:"T" ~dir small_grid in
  if t2.Sweep.resume.Sweep.interrupted then
    Alcotest.fail "resumed campaign should complete";
  if tear && t2.Sweep.resume.Sweep.journal_diagnostics = [] then
    Alcotest.fail "torn tail should surface a journal diagnostic";
  Alcotest.(check int) "every cell answered" n_cells
    (t2.Sweep.resume.Sweep.replayed + t2.Sweep.resume.Sweep.executed);
  String.equal (Lazy.force fresh_fingerprint) (Sweep.fingerprint t2)

let prop_resume_any_boundary =
  QCheck.Test.make ~name:"resume at any cell boundary is byte-identical"
    ~count:10
    QCheck.(pair (int_range 1 (n_cells - 1)) bool)
    (fun (j, tear) -> interrupted_resume_identical ~tear j)

let test_resume_complete_journal () =
  let dir = temp_dir "resume-full" in
  let t1 = Sweep.run_durable ~code_fp:"T" ~dir small_grid in
  let t2 = Sweep.run_durable ~code_fp:"T" ~dir small_grid in
  Alcotest.(check int) "everything replayed" n_cells
    t2.Sweep.resume.Sweep.replayed;
  Alcotest.(check int) "nothing re-executed" 0 t2.Sweep.resume.Sweep.executed;
  Alcotest.(check string) "fingerprint preserved" (Sweep.fingerprint t1)
    (Sweep.fingerprint t2)

let test_resume_invalidates_on_code_change () =
  let dir = temp_dir "resume-inval" in
  let t1 = Sweep.run_durable ~code_fp:"build-A" ~dir small_grid in
  let t2 = Sweep.run_durable ~code_fp:"build-B" ~dir small_grid in
  Alcotest.(check int) "nothing replayed across builds" 0
    t2.Sweep.resume.Sweep.replayed;
  Alcotest.(check int) "stale cells counted" n_cells
    t2.Sweep.resume.Sweep.invalidated;
  Alcotest.(check int) "everything re-executed" n_cells
    t2.Sweep.resume.Sweep.executed;
  Alcotest.(check string) "verdicts unchanged" (Sweep.fingerprint t1)
    (Sweep.fingerprint t2);
  (* A third run on build B replays what the second journaled. *)
  let t3 = Sweep.run_durable ~code_fp:"build-B" ~dir small_grid in
  Alcotest.(check int) "new build's records replay" n_cells
    t3.Sweep.resume.Sweep.replayed

let test_failures_replayed_and_rerun () =
  (* A grid whose cells all fail (one-node Wing-Gong budget): the
     diagnostics must journal and replay like verdicts — merge
     fingerprints depend on it — unless the caller asks to re-run. *)
  let grid =
    {
      small_grid with
      max_check_nodes = Some 1;
      checker = Core.Runtime.Wing_gong;
    }
  in
  let dir = temp_dir "resume-fail" in
  let t1 = Sweep.run_durable ~code_fp:"T" ~dir grid in
  let _, _, failed, _ = Sweep.counts t1 in
  Alcotest.(check int) "every cell failed" n_cells failed;
  let t2 = Sweep.run_durable ~code_fp:"T" ~dir grid in
  Alcotest.(check int) "failures replayed" n_cells
    t2.Sweep.resume.Sweep.replayed;
  Alcotest.(check string) "fingerprint preserved" (Sweep.fingerprint t1)
    (Sweep.fingerprint t2);
  let t3 = Sweep.run_durable ~replay_failures:false ~code_fp:"T" ~dir grid in
  Alcotest.(check int) "--rerun-failed executes them again" n_cells
    t3.Sweep.resume.Sweep.executed

(* ---------------- per-cell wall budget ---------------- *)

let test_cell_timeout_diagnostic () =
  let cell = List.hd (Sweep.cells one_cell_grid) in
  match Sweep.eval ~wall_budget_s:0.0 one_cell_grid cell with
  | Ok _ -> Alcotest.fail "a zero budget must expire"
  | Error msg ->
      Alcotest.(check bool) "named Cell_timeout" true
        (contains msg "Cell_timeout");
      Alcotest.(check bool) "names the cell" true
        (contains msg (Sweep.cell_key one_cell_grid cell));
      (* The message must not leak event counts or wall times: it is
         part of the fingerprint. *)
      let other = Sweep.eval ~wall_budget_s:0.0 one_cell_grid cell in
      Alcotest.(check bool) "diagnostic is deterministic" true
        (other = Error msg)

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* A zero budget expires on every cell's first event: each cell fails
   with exactly the diagnostic its one evaluation gives, and the
   campaign completes.  Each cell is evaluated once: the campaign
   allocates less than one and a half times what evaluating every cell
   once allocates (a second evaluation of each would double it). *)
let test_zero_budget_evaluates_once () =
  let cells = Sweep.cells small_grid in
  let one_each () =
    List.map (fun c -> Sweep.eval ~wall_budget_s:0.0 small_grid c) cells
  in
  ignore (one_each ());
  let once, expected = minor_words one_each in
  let campaign, t =
    minor_words (fun () -> Sweep.run ~wall_budget_s:0.0 small_grid)
  in
  let done_, _, failed, _ = Sweep.counts t in
  Alcotest.(check int) "every cell fails, nothing hangs" n_cells failed;
  Alcotest.(check int) "no completions" 0 done_;
  Alcotest.(check int) "every cell executed" n_cells
    t.Sweep.resume.Sweep.executed;
  Alcotest.(check bool) "campaign itself completed" false
    t.Sweep.resume.Sweep.interrupted;
  List.iteri
    (fun i r ->
      match (r, t.Sweep.results.(i)) with
      | Error want, Sweep.Pool.Failed got ->
          Alcotest.(check bool) "named Cell_timeout" true
            (contains got "Cell_timeout");
          Alcotest.(check string) "one evaluation's diagnostic" want got
      | _ -> Alcotest.fail "expected a failed cell")
    expected;
  if campaign >= 1.5 *. once then
    Alcotest.failf
      "the campaign allocated %.0f words, evaluating each cell once %.0f"
      campaign once

let test_generous_budget_certifies () =
  (* A generous budget never fires, so the verdicts — and the
     fingerprint — are those of an unbudgeted run. *)
  let t = Sweep.run ~wall_budget_s:3600.0 small_grid in
  Alcotest.(check bool) "certified" true (Sweep.certified t);
  Alcotest.(check string) "fingerprint unaffected by the budget"
    (Lazy.force fresh_fingerprint) (Sweep.fingerprint t)

let zero_budget_fingerprint =
  lazy (Sweep.fingerprint (Sweep.run ~wall_budget_s:0.0 small_grid))

(* The timeout diagnostic holds no event count or time, so a campaign
   of timed-out cells fingerprints alike at every [--jobs] and after a
   resume, which replays the journaled timeouts. *)
let test_zero_budget_fingerprint_stable () =
  let want = Lazy.force zero_budget_fingerprint in
  Alcotest.(check bool) "every cell timed out" false
    (contains want " => certified");
  Alcotest.(check string) "jobs 2" want
    (Sweep.fingerprint (Sweep.run ~jobs:2 ~wall_budget_s:0.0 small_grid));
  let dir = temp_dir "resume-zero-budget" in
  let t1 =
    Sweep.run_durable ~wall_budget_s:0.0 ~should_stop:(stop_after 5)
      ~code_fp:"T" ~dir small_grid
  in
  Alcotest.(check bool) "interrupted" true t1.Sweep.resume.Sweep.interrupted;
  let t2 = Sweep.run_durable ~wall_budget_s:0.0 ~code_fp:"T" ~dir small_grid in
  Alcotest.(check bool) "some cells replayed" true
    (t2.Sweep.resume.Sweep.replayed > 0);
  Alcotest.(check string) "resumed" want (Sweep.fingerprint t2)

(* The runner calls [eval] once per pending item and never for a
   replayed one, across an interruption and a resume. *)
let test_runner_evaluates_once () =
  let n = 8 in
  let calls = Array.make n 0 in
  let dir = temp_dir "runner-once" in
  let run ?should_stop () =
    Sweep.Runner.run ~jobs:1 ~fail_fast:false ~should_stop
      ~journal:
        (Some
           (Sweep.Runner.in_dir ~header:"runner-once 1" ~sync_every:1
              ~replay_failures:true dir))
      ~key:string_of_int ~input_fp:Fun.id ~n
      (fun i ->
        calls.(i) <- calls.(i) + 1;
        if i mod 3 = 0 then Error "odd one out" else Ok (i * i))
  in
  let t1 = run ~should_stop:(stop_after 3) () in
  Alcotest.(check int) "three executed" 3 t1.Sweep.Runner.resume.executed;
  let t2 = run () in
  Alcotest.(check int) "those three replay" 3 t2.Sweep.Runner.resume.replayed;
  Alcotest.(check (array int)) "each item evaluated once"
    (Array.make n 1) calls

(* ---------------- leases and the spool ---------------- *)

let test_lease_claim_and_takeover () =
  let dir = temp_dir "leases" in
  (match Sweep.Lease.claim ~dir ~owner:"alive" ~ttl_s:60.0 "c0" with
  | Sweep.Lease.Acquired _ -> ()
  | _ -> Alcotest.fail "first claim should acquire");
  (match Sweep.Lease.claim ~dir ~owner:"rival" ~ttl_s:60.0 "c0" with
  | Sweep.Lease.Held -> ()
  | _ -> Alcotest.fail "live lease should be held against a rival");
  Sweep.Lease.backdate ~dir ~age_s:3600.0 "c0";
  match Sweep.Lease.claim ~dir ~owner:"rival" ~ttl_s:60.0 "c0" with
  | Sweep.Lease.Taken_over lease ->
      Alcotest.(check string) "new owner" "rival" (Sweep.Lease.owner lease);
      Sweep.Lease.release lease
  | _ -> Alcotest.fail "stale lease should be taken over"

(* A spool worker runs one heartbeat for its whole session and points
   it at each cell's lease in turn.  Across two cells: the first lease
   is renewed while held and left alone once dropped, and the second is
   renewed from the moment it is held.  A lease backdated by an hour
   reads fresh again only if the heartbeat renewed it. *)
let test_heartbeat_follows_current_lease () =
  let dir = temp_dir "heartbeat" in
  let claim name =
    match Sweep.Lease.claim ~dir ~owner:"w" ~ttl_s:60.0 name with
    | Sweep.Lease.Acquired lease -> lease
    | _ -> Alcotest.failf "claim of %s should acquire" name
  in
  (* [Lease] keeps the lease on [name] in the file [name.lease]. *)
  let age name =
    Unix.gettimeofday ()
    -. (Unix.stat (Filename.concat dir (name ^ ".lease"))).Unix.st_mtime
  in
  let renewed name =
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec wait () =
      age name < 60.0
      || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.01; wait ()))
    in
    wait ()
  in
  let hb = Sweep.Lease.Heartbeat.start ~interval_s:0.05 in
  Fun.protect
    ~finally:(fun () -> Sweep.Lease.Heartbeat.stop hb)
    (fun () ->
      let first = claim "c0" in
      Sweep.Lease.Heartbeat.hold hb first;
      Sweep.Lease.backdate ~dir ~age_s:3600.0 "c0";
      Alcotest.(check bool) "first cell's lease renewed" true (renewed "c0");
      Sweep.Lease.Heartbeat.drop hb;
      (* Keep the dropped lease's file, backdated, so that a renewal
         of it would show, over five heartbeat intervals between the
         cells and as many while the second is held. *)
      Sweep.Lease.backdate ~dir ~age_s:3600.0 "c0";
      Unix.sleepf 0.25;
      Alcotest.(check bool) "dropped lease left alone between cells" true
        (age "c0" > 3000.0);
      let second = claim "c1" in
      Sweep.Lease.Heartbeat.hold hb second;
      Sweep.Lease.backdate ~dir ~age_s:3600.0 "c1";
      Alcotest.(check bool) "second cell's lease renewed" true
        (renewed "c1");
      Unix.sleepf 0.25;
      Alcotest.(check bool) "dropped lease left alone after" true
        (age "c0" > 3000.0);
      Sweep.Lease.release first;
      Sweep.Lease.release second)

(* A lease ttl that is not positive is refused by name before the
   spool is touched: nan would spin the heartbeat, 0 or less would make
   every live lease read as stale. *)
let test_spool_refuses_bad_lease_ttl () =
  let dir = temp_dir "spool-ttl" in
  List.iter
    (fun ttl ->
      Alcotest.check_raises (Printf.sprintf "ttl %g" ttl)
        (Invalid_argument
           (Printf.sprintf
              "Sweep.Spool.worker: lease_ttl_s = %g is not positive" ttl))
        (fun () ->
          ignore
            (Sweep.Spool.worker ~worker_id:"w" ~lease_ttl_s:ttl ~code_fp:"T"
               ~dir small_grid)))
    [ Float.nan; 0.; -1.; Float.neg_infinity ];
  Alcotest.(check bool) "spool untouched" false
    (Sys.file_exists (Filename.concat dir "leases"))

let test_spool_rejects_other_grid () =
  let dir = temp_dir "spool-grid" in
  (match Sweep.Spool.init ~dir small_grid with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "init failed: %s" msg);
  match Sweep.Spool.init ~dir one_cell_grid with
  | Error msg ->
      Alcotest.(check bool) "names the conflict" true
        (contains msg "different campaign")
  | Ok () -> Alcotest.fail "a different grid must not share the spool"

let test_spool_single_worker_merge_identical () =
  let dir = temp_dir "spool-one" in
  (match
     Sweep.Spool.worker ~worker_id:"w0" ~code_fp:"T" ~dir small_grid
   with
  | Error msg -> Alcotest.failf "worker failed: %s" msg
  | Ok r ->
      Alcotest.(check int) "worker ran every cell" n_cells
        r.Sweep.Spool.completed;
      Alcotest.(check bool) "not interrupted" false r.Sweep.Spool.interrupted);
  (match Sweep.Spool.status ~dir small_grid with
  | Ok (d, n) ->
      Alcotest.(check (pair int int)) "all done" (n_cells, n_cells) (d, n)
  | Error msg -> Alcotest.failf "status failed: %s" msg);
  match Sweep.Spool.merge ~code_fp:"T" ~dir small_grid with
  | Error msg -> Alcotest.failf "merge failed: %s" msg
  | Ok t ->
      Alcotest.(check string) "merge is byte-identical to a plain run"
        (Lazy.force fresh_fingerprint) (Sweep.fingerprint t)

let test_spool_two_workers_split_merge_identical () =
  let dir = temp_dir "spool-two" in
  (* Worker a stops partway; worker b finishes the campaign. *)
  (match
     Sweep.Spool.worker ~worker_id:"a" ~should_stop:(stop_after 5) ~code_fp:"T"
       ~dir small_grid
   with
  | Error msg -> Alcotest.failf "worker a failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "worker a interrupted" true
        r.Sweep.Spool.interrupted;
      Alcotest.(check bool) "worker a did some cells" true
        (r.Sweep.Spool.completed > 0 && r.Sweep.Spool.completed < n_cells));
  (* Merge while cells are missing must refuse, not fabricate. *)
  (match Sweep.Spool.merge ~code_fp:"T" ~dir small_grid with
  | Error msg ->
      Alcotest.(check bool) "partial merge names the gap" true
        (contains msg "not yet journaled")
  | Ok _ -> Alcotest.fail "merge must fail while cells are missing");
  (match Sweep.Spool.worker ~worker_id:"b" ~code_fp:"T" ~dir small_grid with
  | Error msg -> Alcotest.failf "worker b failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "worker b finished the rest" true
        (r.Sweep.Spool.completed > 0 && not r.Sweep.Spool.interrupted));
  match Sweep.Spool.merge ~code_fp:"T" ~dir small_grid with
  | Error msg -> Alcotest.failf "merge failed: %s" msg
  | Ok t ->
      Alcotest.(check string) "split campaign merges byte-identically"
        (Lazy.force fresh_fingerprint) (Sweep.fingerprint t)

let test_spool_takeover_from_dead_worker () =
  let dir = temp_dir "spool-dead" in
  (match Sweep.Spool.init ~dir small_grid with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "init failed: %s" msg);
  (* Simulate a worker that claimed a cell and died: its lease exists,
     heartbeat long stale, no done marker. *)
  let leases = Filename.concat dir "leases" in
  (match Sweep.Lease.claim ~dir:leases ~owner:"dead" ~ttl_s:60.0 "c000000" with
  | Sweep.Lease.Acquired _ -> ()
  | _ -> Alcotest.fail "dead worker's claim should acquire");
  Sweep.Lease.backdate ~dir:leases ~age_s:3600.0 "c000000";
  (match
     Sweep.Spool.worker ~worker_id:"live" ~lease_ttl_s:60.0 ~code_fp:"T" ~dir
       small_grid
   with
  | Error msg -> Alcotest.failf "worker failed: %s" msg
  | Ok r ->
      Alcotest.(check bool) "stale lease evicted" true
        (r.Sweep.Spool.takeovers >= 1);
      Alcotest.(check int) "every cell recovered" n_cells
        r.Sweep.Spool.completed);
  match Sweep.Spool.merge ~code_fp:"T" ~dir small_grid with
  | Error msg -> Alcotest.failf "merge failed: %s" msg
  | Ok t ->
      Alcotest.(check string) "recovered campaign byte-identical"
        (Lazy.force fresh_fingerprint) (Sweep.fingerprint t)

(* A worker under a zero budget journals every cell's Cell_timeout,
   and the merge is the single-process budgeted campaign. *)
let test_spool_zero_budget_worker () =
  let dir = temp_dir "spool-zero-budget" in
  (match
     Sweep.Spool.worker ~worker_id:"w0" ~wall_budget_s:0.0 ~code_fp:"T" ~dir
       small_grid
   with
  | Error msg -> Alcotest.failf "worker failed: %s" msg
  | Ok r ->
      Alcotest.(check int) "worker ran every cell" n_cells
        r.Sweep.Spool.completed;
      Alcotest.(check int) "every cell journaled as a failure" n_cells
        r.Sweep.Spool.failed);
  match Sweep.Spool.merge ~code_fp:"T" ~dir small_grid with
  | Error msg -> Alcotest.failf "merge failed: %s" msg
  | Ok t ->
      Array.iter
        (function
          | Sweep.Pool.Failed msg ->
              Alcotest.(check bool) "named Cell_timeout" true
                (contains msg "Cell_timeout")
          | _ -> Alcotest.fail "expected a failed cell")
        t.Sweep.results;
      Alcotest.(check string) "merge is the budgeted single-process run"
        (Lazy.force zero_budget_fingerprint) (Sweep.fingerprint t)

(* ---------------- shard journal resume ---------------- *)

let shard_cfg =
  Shard.Config.make ~shards:4 ~ops:400 ~keys:16
    ~arrival:(Core.Workload.Poisson { rate = Rat.one })
    ~model:(Sim.Model.make ~n:3 ~d:(Rat.of_int 10) ~u:(Rat.of_int 4)
              ~eps:Rat.one)
    ~algorithm:Core.Runtime.Centralized ()

let test_shard_resume_identical () =
  let pt = packed "counter" in
  let fresh = Shard.run shard_cfg pt in
  let dir = temp_dir "shard-resume" in
  let t1 =
    Shard.run ~should_stop:(stop_after 2) ~journal_dir:dir ~code_fp:"T"
      shard_cfg pt
  in
  Alcotest.(check bool) "interrupted" true t1.Shard.interrupted;
  let t2 = Shard.run ~journal_dir:dir ~code_fp:"T" shard_cfg pt in
  Alcotest.(check bool) "resume completes" false t2.Shard.interrupted;
  Alcotest.(check bool) "some shards replayed" true (t2.Shard.replayed > 0);
  Alcotest.(check string) "fingerprint byte-identical to a fresh run"
    (Shard.fingerprint fresh) (Shard.fingerprint t2)

(* ---------------- fresh journals at jobs > 1 ---------------- *)

(* A fresh journal on several domains: the runner renders every item's
   input fingerprint, and the lazy code digest behind it, before the
   pool starts, so no two workers force the same lazy (which raises
   [CamlinternalLazy.Undefined] in OCaml 5).  The real code digest is
   used, not [code_fp]: hashing the binary is the widest window. *)
let test_parallel_fresh_journal () =
  for round = 1 to 3 do
    let t = Sweep.run_durable ~jobs:4 ~dir:(temp_dir "parallel-sweep") small_grid in
    Alcotest.(check bool)
      (Printf.sprintf "sweep round %d: every cell certified" round)
      true (Sweep.certified t);
    Alcotest.(check string)
      (Printf.sprintf "sweep round %d: jobs-1 fingerprint" round)
      (Lazy.force fresh_fingerprint) (Sweep.fingerprint t)
  done;
  let pt = packed "counter" in
  let reference = Shard.fingerprint (Shard.run shard_cfg pt) in
  for round = 1 to 3 do
    let t =
      Shard.run ~jobs:2 ~journal_dir:(temp_dir "parallel-shard") shard_cfg pt
    in
    Alcotest.(check bool)
      (Printf.sprintf "shard round %d: every shard certified" round)
      true t.Shard.certified;
    Alcotest.(check string)
      (Printf.sprintf "shard round %d: jobs-1 fingerprint" round)
      reference (Shard.fingerprint t)
  done

(* The writer marshals each record into one buffer, grown when a
   record does not fit, and checksums that byte range.  The file must
   hold exactly the frames [Marshal.to_string] gave: magic, big-endian
   length, FNV-1a of the body, body — for records below and above the
   buffer's first size. *)
let test_frames_as_marshal_to_string () =
  let dir = temp_dir "journal-frames" in
  let path = Filename.concat dir "j" in
  let fp = "test-journal 1" in
  let records =
    [
      ("small", 1, "x");
      ("big", 2, String.make 5000 'y');
      ("small again", 3, "z");
      ("bigger", 4, String.init 70_000 (fun i -> Char.chr (i land 0xff)));
    ]
  in
  let w = Sweep.Journal.writer ~path ~fp () in
  List.iter
    (fun (key, input_fp, payload) ->
      Sweep.Journal.append w ~key ~input_fp payload)
    records;
  Sweep.Journal.close w;
  let u32 v =
    String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))
  in
  let expected =
    "repro-journal 1 " ^ fp ^ "\n"
    ^ String.concat ""
        (List.map
           (fun (key, input_fp, payload) ->
             let body = Marshal.to_string (key, input_fp, payload) [] in
             "RJ1\n" ^ u32 (String.length body) ^ u32 (Core.Hash.fnv1a body)
             ^ body)
           records)
  in
  let ic = open_in_bin path in
  let bytes = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check int) "file length" (String.length expected)
    (String.length bytes);
  Alcotest.(check bool) "same bytes" true (String.equal expected bytes);
  let back, diags = Sweep.Journal.load ~path ~fp in
  Alcotest.(check int) "no diagnostics" 0 (List.length diags);
  Alcotest.(check (list string)) "payloads back"
    (List.map (fun (_, _, p) -> p) records)
    (List.map (fun (r : string Sweep.Journal.record) -> r.payload) back)

(* The input fingerprint hashes the key and then the environment
   suffix, with no concatenation; the value must be the one the
   concatenation gave, so existing journals still replay. *)
let prop_input_fingerprint_streams =
  QCheck.Test.make ~name:"streamed input fingerprint = fnv1a (key ^ env)"
    ~count:300
    QCheck.(pair string (option small_nat))
    (fun (key, max_check_nodes) ->
      let fp =
        Sweep.Runner.input_fingerprint ~code_fp:"c0de" ~max_events:(Some 500)
          ~max_check_nodes Core.Runtime.Wing_gong
      in
      let env =
        Printf.sprintf
          ";max_events=500;max_check_nodes=%s;checker=wing-gong;ocaml=%s;code=c0de"
          (match max_check_nodes with None -> "none" | Some n -> string_of_int n)
          Sys.ocaml_version
      in
      fp key = Core.Hash.fnv1a (key ^ env))

let () =
  Alcotest.run "durable"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "frames as Marshal.to_string framed them" `Quick
            test_frames_as_marshal_to_string;
          QCheck_alcotest.to_alcotest prop_input_fingerprint_streams;
          Alcotest.test_case "torn tail truncated, prefix kept" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "flipped byte caught by checksum" `Quick
            test_journal_flipped_byte;
          Alcotest.test_case "header mismatch is a fresh journal" `Quick
            test_journal_header_mismatch;
        ] );
      ( "resume",
        [
          Alcotest.test_case "fresh journal at jobs > 1" `Quick
            test_parallel_fresh_journal;
          QCheck_alcotest.to_alcotest prop_resume_any_boundary;
          Alcotest.test_case "complete journal replays everything" `Quick
            test_resume_complete_journal;
          Alcotest.test_case "code change invalidates per cell" `Quick
            test_resume_invalidates_on_code_change;
          Alcotest.test_case "failures replay unless rerun requested" `Quick
            test_failures_replayed_and_rerun;
          Alcotest.test_case "runner evaluates each item once" `Quick
            test_runner_evaluates_once;
        ] );
      ( "timeout",
        [
          Alcotest.test_case "zero budget raises a named Cell_timeout" `Quick
            test_cell_timeout_diagnostic;
          Alcotest.test_case "zero budget fails each cell once" `Quick
            test_zero_budget_evaluates_once;
          Alcotest.test_case "generous budget leaves verdicts alone" `Quick
            test_generous_budget_certifies;
          Alcotest.test_case "zero budget fingerprint at jobs 1, 2, resumed"
            `Quick test_zero_budget_fingerprint_stable;
        ] );
      ( "spool",
        [
          Alcotest.test_case "lease claim, hold, stale takeover" `Quick
            test_lease_claim_and_takeover;
          Alcotest.test_case "heartbeat follows the current lease" `Quick
            test_heartbeat_follows_current_lease;
          Alcotest.test_case "spool rejects a different grid" `Quick
            test_spool_rejects_other_grid;
          Alcotest.test_case "spool refuses a lease ttl that is not positive"
            `Quick test_spool_refuses_bad_lease_ttl;
          Alcotest.test_case "single worker + merge byte-identical" `Quick
            test_spool_single_worker_merge_identical;
          Alcotest.test_case "two-worker split merges byte-identically" `Quick
            test_spool_two_workers_split_merge_identical;
          Alcotest.test_case "dead worker's cell recovered by takeover" `Quick
            test_spool_takeover_from_dead_worker;
          Alcotest.test_case "zero-budget worker journals timeouts" `Quick
            test_spool_zero_budget_worker;
        ] );
      ( "shard",
        [
          Alcotest.test_case "interrupted load resumes byte-identically"
            `Quick test_shard_resume_identical;
        ] );
    ]
