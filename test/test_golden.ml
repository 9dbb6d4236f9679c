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

let queue_golden = "5a121aed2770c595d5dd0f135aa1b344"
let register_golden = "cac0e63077294ba777e506c3582bff73"

let shard_golden ~name ~golden cfg pt () =
  let fp1 = Shard.fingerprint (Shard.run ~jobs:1 cfg pt) in
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
  Alcotest.(check string) "pp_json" robustness_golden
    (md5 (Format.asprintf "%a" Core.Robustness.pp_json cells))

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
          Alcotest.test_case "schema-1 shard journal is refused" `Quick
            test_schema1_shard_journal_refused;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "matrix json on the register" `Quick
            test_robustness_golden;
        ] );
    ]
