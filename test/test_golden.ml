(* Golden oracles for campaign execution.  The MD5s below were taken
   from the fingerprints and reports the campaign layer produced before
   sweep, load and spool merge were moved onto one runner; any change
   to verdicts, merged summaries, resume accounting or report layout
   shows up here as a changed digest.  Also checks that a shard journal
   written under the old record schema is refused by name instead of
   being decoded. *)

let md5 s = Digest.to_hex (Digest.string s)

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

(* Stops a [jobs = 1] campaign after [j] claims. *)
let stop_after j =
  let calls = ref 0 in
  fun () ->
    incr calls;
    !calls > j

let model =
  Sim.Model.make ~n:3 ~d:(Rat.of_int 10) ~u:(Rat.of_int 4) ~eps:Rat.one

(* ---------------- sweep ---------------- *)

let small_grid = { Sweep.default_grid with types = [ packed "queue" ] }
let sweep_golden = "f091acd24b419414d2b5224e5e13be8e"

let test_sweep_golden () =
  let fp1 = Sweep.fingerprint (Sweep.run ~jobs:1 small_grid) in
  let fp3 = Sweep.fingerprint (Sweep.run ~jobs:3 small_grid) in
  let dir = temp_dir "golden-sweep" in
  let t1 =
    Sweep.run_durable ~should_stop:(stop_after 5) ~code_fp:"T" ~dir small_grid
  in
  Alcotest.(check bool) "stopped" true t1.Sweep.resume.Sweep.interrupted;
  let t2 = Sweep.run_durable ~code_fp:"T" ~dir small_grid in
  Alcotest.(check int) "replayed the stopped run's cells" 5
    t2.Sweep.resume.Sweep.replayed;
  Alcotest.(check string) "jobs 1" sweep_golden (md5 fp1);
  Alcotest.(check string) "jobs 3" sweep_golden (md5 fp3);
  Alcotest.(check string) "resumed" sweep_golden (md5 (Sweep.fingerprint t2))

(* ---------------- load shards ---------------- *)

let queue_cfg =
  Shard.Config.make ~shards:3 ~ops:600 ~keys:16 ~zipf:0.8
    ~arrival:(Core.Workload.Poisson { rate = Rat.one })
    ~model
    ~algorithm:(Core.Runtime.Wtlw { x = Rat.of_int 3 })
    ~seed:5 ()

let lossy_register_cfg =
  Shard.Config.reliable
    (Shard.Config.make ~shards:3 ~ops:600 ~keys:16
       ~faults:
         (Sim.Fault.plan ~seed:3
            [ Sim.Fault.drops 0.05; Sim.Fault.duplicates 0.02 ])
       ~arrival:(Core.Workload.Poisson { rate = Rat.one })
       ~model
       ~algorithm:(Core.Runtime.Wtlw { x = Rat.make 9 2 })
       ~seed:11 ())

(* The same queue load under bursty and diurnal arrivals, and the
   lossy register leg under diurnal arrivals: every arrival kind's
   generation, routing and clamping feeds a pinned fingerprint. *)
let bursty_queue_cfg =
  Shard.Config.make ~shards:3 ~ops:600 ~keys:16 ~zipf:0.8
    ~arrival:(Core.Workload.Bursty { rate = Rat.one; size = 4 })
    ~model
    ~algorithm:(Core.Runtime.Wtlw { x = Rat.of_int 3 })
    ~seed:5 ()

let diurnal =
  Core.Workload.Diurnal
    { rate = Rat.one; period = Rat.of_int 50; trough = Rat.make 1 5 }

let diurnal_queue_cfg =
  Shard.Config.make ~shards:3 ~ops:600 ~keys:16 ~zipf:0.8 ~arrival:diurnal
    ~model
    ~algorithm:(Core.Runtime.Wtlw { x = Rat.of_int 3 })
    ~seed:5 ()

let lossy_diurnal_register_cfg =
  Shard.Config.reliable
    (Shard.Config.make ~shards:3 ~ops:600 ~keys:16
       ~faults:
         (Sim.Fault.plan ~seed:3
            [ Sim.Fault.drops 0.05; Sim.Fault.duplicates 0.02 ])
       ~arrival:diurnal ~model
       ~algorithm:(Core.Runtime.Wtlw { x = Rat.make 9 2 })
       ~seed:11 ())

(* A harsher lossy leg, as [repro load -n 6 --reliable --faults
   drop=0.2,dup=0.1 --shards 2 --ops 8000] runs it: six processes, so a
   stream's rings grow past two slots, the hold-back buffer reorders,
   and payloads exhaust their retries.  The queue certifies (only acks
   were lost for good); the register is flagged, because a payload
   exhausted its retries and its write never arrived. *)
let harsh_lossy_cfg =
  let model =
    Sim.Model.make_optimal_eps ~n:6 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)
  in
  Shard.Config.reliable
    (Shard.Config.make ~shards:2 ~ops:8000 ~zipf:1.0
       ~faults:
         (Sim.Fault.plan [ Sim.Fault.drops 0.2; Sim.Fault.duplicates 0.1 ])
       ~max_check_nodes:200_000
       ~arrival:(Core.Workload.Poisson { rate = Rat.one })
       ~model
       ~algorithm:(Core.Runtime.Wtlw { x = Rat.make 13 3 })
       ~seed:1 ())

let queue_golden = "5a121aed2770c595d5dd0f135aa1b344"
let register_golden = "cac0e63077294ba777e506c3582bff73"
let bursty_queue_golden = "8853b859aaaa2a953458b5b3a8aab449"
let diurnal_queue_golden = "9e905352f8e987e5fa0eacdf8ede32c7"
let lossy_diurnal_golden = "2d261b29dc564bb85d97895b7398914a"
let harsh_queue_golden = "4bb8fe7885498273f1409537ebc3e405"
let harsh_register_golden = "584c9725930c55569f384efa47b1eae8"

let shard_golden ?certified ~name ~golden cfg pt () =
  let t = Shard.run ~jobs:1 cfg pt in
  Option.iter
    (fun c -> Alcotest.(check bool) "certified" c t.Shard.certified)
    certified;
  let fp1 = Shard.fingerprint t in
  let fp2 = Shard.fingerprint (Shard.run ~jobs:2 cfg pt) in
  let dir = temp_dir ("golden-" ^ name) in
  let t1 =
    Shard.run ~should_stop:(stop_after 1) ~journal_dir:dir ~code_fp:"T" cfg pt
  in
  Alcotest.(check bool) "stopped" true t1.Shard.interrupted;
  let t2 = Shard.run ~journal_dir:dir ~code_fp:"T" cfg pt in
  Alcotest.(check int) "replayed the stopped run's shard" 1 t2.Shard.replayed;
  Alcotest.(check string) "jobs 1" golden (md5 fp1);
  Alcotest.(check string) "jobs 2" golden (md5 fp2);
  Alcotest.(check string) "resumed" golden (md5 (Shard.fingerprint t2))

(* A schema-1 shard journal held bare reports.  Decoding one as a
   result would be undefined behaviour ([Marshal] is untyped), so the
   header must refuse it by name and every shard must run again. *)
let test_schema1_shard_journal_refused () =
  let pt = packed "queue" in
  let dir = temp_dir "golden-schema1" in
  let fresh = Shard.run ~journal_dir:dir ~code_fp:"T" queue_cfg pt in
  let path = Filename.concat dir "journal" in
  let records, _ =
    (Sweep.Journal.load ~path ~fp:Shard.journal_header
      : (Shard.shard_report, string) result Sweep.Journal.record list * _)
  in
  Alcotest.(check int) "every shard journaled" queue_cfg.shards
    (List.length records);
  Sys.remove path;
  let w =
    Sweep.Journal.writer ~path
      ~fp:(Sweep.Journal.header "repro-load-shards;schema=1")
      ()
  in
  List.iter
    (fun (r : _ Sweep.Journal.record) ->
      match r.payload with
      | Ok report ->
          Sweep.Journal.append w ~key:r.key ~input_fp:r.input_fp report
      | Error _ -> ())
    records;
  Sweep.Journal.close w;
  let t = Shard.run ~journal_dir:dir ~code_fp:"T" queue_cfg pt in
  Alcotest.(check int) "nothing replayed" 0 t.Shard.replayed;
  Alcotest.(check bool) "header mismatch named" true
    (List.exists
       (fun d -> contains d "header mismatch")
       t.Shard.journal_diagnostics);
  Alcotest.(check string) "full re-run, fresh fingerprint"
    (Shard.fingerprint fresh) (Shard.fingerprint t);
  Alcotest.(check string) "fresh fingerprint is the golden one" queue_golden
    (md5 (Shard.fingerprint t))

(* ---------------- robustness matrix ---------------- *)

let robustness_golden = "c6e8afc3f891ca9634876d37a17f2596"

let test_robustness_golden () =
  let cells =
    Sweep.robustness ~jobs:2 ~model ~x:(Rat.of_int 5) ~seed:7
      [ packed "register" ]
  in
  let json = Core.Json.compact (Scenario.Robustness.to_json cells) in
  Alcotest.(check string) "to_json" robustness_golden (md5 json);
  (* The reader gives back every cell, and prints the same bytes. *)
  let read = Result.get_ok (Core.Json.parse json) in
  Alcotest.(check string) "reads back to the same bytes" json
    (Core.Json.compact read);
  Alcotest.(check (option int)) "cells" (Some (List.length cells))
    Core.Json.(to_int (member "cells" read));
  Alcotest.(check (option bool)) "certified" (Some true)
    Core.Json.(to_bool (member "certified" read))

let () =
  Alcotest.run "golden"
    [
      ( "sweep",
        [
          Alcotest.test_case "fingerprint at jobs 1, 3 and resumed" `Quick
            test_sweep_golden;
        ] );
      ( "load",
        [
          Alcotest.test_case "raw queue at jobs 1, 2 and resumed" `Quick
            (shard_golden ~name:"queue" ~golden:queue_golden queue_cfg
               (packed "queue"));
          Alcotest.test_case "lossy register at jobs 1, 2 and resumed" `Quick
            (shard_golden ~name:"register" ~golden:register_golden
               lossy_register_cfg (packed "register"));
          Alcotest.test_case "bursty queue at jobs 1, 2 and resumed" `Quick
            (shard_golden ~name:"bursty-queue" ~golden:bursty_queue_golden
               bursty_queue_cfg (packed "queue"));
          Alcotest.test_case "diurnal queue at jobs 1, 2 and resumed" `Quick
            (shard_golden ~name:"diurnal-queue" ~golden:diurnal_queue_golden
               diurnal_queue_cfg (packed "queue"));
          Alcotest.test_case "lossy diurnal register at jobs 1, 2 and resumed"
            `Quick
            (shard_golden ~name:"diurnal-register"
               ~golden:lossy_diurnal_golden lossy_diurnal_register_cfg
               (packed "register"));
          Alcotest.test_case "harsh lossy queue at jobs 1, 2 and resumed"
            `Quick
            (shard_golden ~name:"harsh-queue" ~certified:true
               ~golden:harsh_queue_golden harsh_lossy_cfg (packed "queue"));
          Alcotest.test_case "harsh lossy register at jobs 1, 2 and resumed"
            `Quick
            (shard_golden ~name:"harsh-register" ~certified:false
               ~golden:harsh_register_golden harsh_lossy_cfg
               (packed "register"));
          Alcotest.test_case "schema-1 shard journal is refused" `Quick
            test_schema1_shard_journal_refused;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "matrix json on the register" `Quick
            test_robustness_golden;
        ] );
    ]
