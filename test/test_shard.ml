(* Tests for the sharded composite runtime (lib/shard).

   The load-bearing properties: a sharded run certifies exactly when
   the equivalent single-cluster run over the fused object does
   (linearizability locality, paper §2.3); shards partition the
   generated stream without losing or duplicating arrivals; and the
   whole report is deterministic in everything but wall-clock, so the
   fingerprint is byte-identical for every pool size. *)

module ShR = Shard.Make (Spec.Register)
module ShQ = Shard.Make (Spec.Fifo_queue)

(* The 2-key / 2-shard register keyspace, fused into one ordinary
   product object: key 0 = Left, key 1 = Right. *)
module P = Spec.Product.Make (Spec.Register) (Spec.Register)
module RT = Core.Runtime.Make (P)

let rat = Rat.make
let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 10 1) ~u:(rat 4 1)
let algorithm = Core.Runtime.Wtlw { x = rat 2 1 }
let arrival = Core.Workload.Poisson { rate = rat 1 4 }

let shard_cfg ~shards ~ops ~keys ?(zipf = 0.0) ~seed () =
  Shard.Config.make ~keys ~zipf ~seed ~shards ~ops ~arrival ~model ~algorithm
    ()

let done_reports (t : Shard.t) =
  Array.to_list t.reports
  |> List.filter_map (function
       | Sweep.Pool.Done (r : Shard.shard_report) -> Some r
       | Sweep.Pool.Failed _ | Sweep.Pool.Skipped -> None)

(* The report's [shard_reports], printed and read back. *)
let shard_reports t =
  let json = Result.get_ok Core.Json.(parse (compact (Shard.to_json t))) in
  Option.get Core.Json.(to_list (member "shard_reports" json))

(* Re-derive the exact stream a sharded run partitions (same
   construction as [Shard.Make]: one tagged generator from the config
   seed) and fuse it into a product schedule for a single cluster. *)
let product_schedule ~ops ~seed =
  let gen =
    Core.Workload.Gen.create ~arrival ~keys:2 ~ops ~seed
      ~invocation:(fun rng ~key:_ ~seq -> Spec.Register.gen_tagged rng ~tag:seq)
      ()
  in
  let min_gap = Rat.add (Rat.mul_int model.d 2) model.eps in
  List.map
    (fun (e : Spec.Register.invocation Core.Workload.keyed Core.Workload.entry) ->
      let side = if e.inv.key = 0 then P.Left e.inv.inv else P.Right e.inv.inv in
      Core.Workload.entry ~proc:e.proc ~at:e.at side)
    (Core.Workload.materialize ~procs:model.n ~min_gap gen)

let test_shard_vs_product_equivalence () =
  let ops = 100 and seed = 5 in
  let sharded = ShR.run (shard_cfg ~shards:2 ~ops ~keys:2 ~seed ()) in
  Alcotest.(check bool) "sharded run certified" true sharded.certified;
  let reports = done_reports sharded in
  Alcotest.(check int) "both shards reported" 2 (List.length reports);
  let product =
    RT.run
      (RT.Config.make ~model
         ~offsets:(Array.make model.n Rat.zero)
         ~delay:(Sim.Net.random_model ~seed model)
         ~algorithm
         ~workload:(RT.Schedule (product_schedule ~ops ~seed))
         ())
  in
  (* Same certification verdict: the fused single-cluster run passes
     exactly as the per-key sharded certification does. *)
  Alcotest.(check bool) "product run ok" true (RT.ok product);
  Alcotest.(check bool) "product linearizable" true
    (product.linearization <> None);
  (* Same per-side operation counts: shard s served exactly the
     arrivals the product run tagged for side s. *)
  let count side =
    List.length
      (List.filter
         (fun (op : (P.invocation, P.response) Sim.Trace.operation) ->
           match (op.inv, side) with
           | P.Left _, `L | P.Right _, `R -> true
           | _ -> false)
         product.operations)
  in
  List.iter
    (fun (r : Shard.shard_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d certified" r.shard)
        true r.certified;
      Alcotest.(check int)
        (Printf.sprintf "shard %d op count matches product side" r.shard)
        (count (if r.shard = 0 then `L else `R))
        r.operations)
    reports;
  Alcotest.(check int) "no operation lost across the partition" ops
    (count `L + count `R)

let test_fingerprint_independent_of_jobs () =
  let cfg = shard_cfg ~shards:4 ~ops:400 ~keys:16 ~zipf:0.9 ~seed:7 () in
  let fp jobs = Shard.fingerprint (ShQ.run ~jobs cfg) in
  let f1 = fp 1 in
  Alcotest.(check bool) "fingerprint nonempty" true (String.length f1 > 0);
  Alcotest.(check string) "jobs=2 byte-identical" f1 (fp 2);
  Alcotest.(check string) "jobs=3 byte-identical" f1 (fp 3)

(* A 1-shard report reads back to the bytes it was printed as, with
   its counts under their names. *)
let test_json_reads_back () =
  let cfg = shard_cfg ~shards:1 ~ops:200 ~keys:4 ~zipf:0.5 ~seed:2 () in
  let t = ShQ.run ~jobs:1 cfg in
  let printed = Core.Json.compact (Shard.to_json t) in
  let json = Result.get_ok (Core.Json.parse printed) in
  Alcotest.(check string) "same bytes" printed (Core.Json.compact json);
  let open Core.Json in
  Alcotest.(check (option int)) "shards" (Some 1)
    (to_int (member "shards" json));
  Alcotest.(check (option (float 0.))) "zipf" (Some 0.5)
    (to_number (member "zipf" json));
  let aggregate = member "aggregate" json in
  Alcotest.(check (option int)) "operations" (Some t.operations)
    (to_int (member "operations" aggregate));
  Alcotest.(check bool) "quantiles" true
    (to_number (member "p99" (member "quantiles" aggregate)) <> None);
  Alcotest.(check (option bool)) "shard certified" (Some true)
    (to_bool (member "certified" (List.hd (shard_reports t))))

let test_multi_key_run_certified_and_conserved () =
  let ops = 600 in
  let t = ShQ.run ~jobs:2 (shard_cfg ~shards:3 ~ops ~keys:12 ~zipf:0.7 ~seed:3 ()) in
  Alcotest.(check bool) "certified" true t.certified;
  let reports = done_reports t in
  Alcotest.(check int) "all shards reported" 3 (List.length reports);
  Alcotest.(check int) "every arrival served exactly once" ops t.operations;
  Alcotest.(check int) "aggregate = sum of shards" t.operations
    (List.fold_left (fun acc (r : Shard.shard_report) -> acc + r.operations) 0
       reports);
  Alcotest.(check int) "histogram covers every operation" t.operations
    (Core.Metrics.Hist.count t.hist);
  Alcotest.(check int) "nothing pending" 0 t.pending;
  List.iter
    (fun (r : Shard.shard_report) ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d linearizable" r.shard)
        true r.linearizable;
      Alcotest.(check (list int))
        (Printf.sprintf "shard %d has no uncertified keys" r.shard)
        [] r.uncertified_keys;
      (* tagged generation keeps histories unambiguous, so the log-linear
         monitors never fall back to the exponential Wing-Gong search *)
      Alcotest.(check int)
        (Printf.sprintf "shard %d monitor-certified without fallback" r.shard)
        0 r.fallbacks;
      Alcotest.(check bool)
        (Printf.sprintf "shard %d histogram matches its op count" r.shard)
        true
        (Core.Metrics.Hist.count r.hist = r.operations))
    reports;
  (* Shards partition the keyspace: no key is served by two shards. *)
  Alcotest.(check bool) "distinct keys across shards fit the keyspace" true
    (List.fold_left (fun acc (r : Shard.shard_report) -> acc + r.keys) 0 reports
    <= 12)

(* Order-first certification changes only who certifies a key, never
   the verdict: over every bundled type and all three algorithms, the
   per-key monitor path — kernel, then the algorithm's own order over
   the key — gives the fingerprint the exhaustive Wing-Gong
   oracle gives, and never needs Wing-Gong itself. *)
let test_monitor_matches_wing_gong () =
  List.iter
    (fun pt ->
      List.iter
        (fun algorithm ->
          let cfg checker =
            Shard.Config.make ~checker ~seed:4 ~shards:2 ~ops:2_000 ~arrival
              ~model ~algorithm ()
          in
          let name =
            Printf.sprintf "%s/%s" (Sweep.Packed_type.key pt)
              (Core.Runtime.algorithm_name algorithm)
          in
          let mon = Shard.run (cfg Core.Runtime.Monitor) pt in
          let wg = Shard.run (cfg Core.Runtime.Wing_gong) pt in
          Alcotest.(check bool) (name ^ " certified") true mon.certified;
          Alcotest.(check string)
            (name ^ " fingerprint monitor = wing-gong")
            (Shard.fingerprint wg) (Shard.fingerprint mon);
          List.iter
            (fun (r : Shard.shard_report) ->
              Alcotest.(check int)
                (Printf.sprintf "%s shard %d: no Wing-Gong key" name r.shard)
                0 r.fallbacks)
            (done_reports mon))
        [ algorithm; Core.Runtime.Centralized; Core.Runtime.Tob ])
    Sweep.Packed_type.all

module ShC = Shard.Make (Spec.Counter_type)
module CheckC = Lin.Checker.Make (Spec.Counter_type)

let one_line_op op =
  let b = Buffer.create 64 in
  let f = Format.formatter_of_buffer b in
  Format.pp_set_margin f 1_000_000;
  Format.fprintf f "%a@?" CheckC.pp_op op;
  Buffer.contents b

let occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else go (i + 1) (if String.sub s i m = sub then acc + 1 else acc)
  in
  go 0 0

(* Without the reliable channel a dropped broadcast leaves a replica
   without a counter update, so the timestamp order no longer replays.
   Such keys go to Wing-Gong: each key's verdict must still be the
   oracle's, and the shard must name the first refused order by the
   operations of its key. *)
let test_refused_order_named () =
  let cfg checker =
    Shard.Config.make ~checker ~faults:(Sim.Fault.plan [ Sim.Fault.drops 0.05 ])
      ~seed:1 ~shards:2 ~ops:2_000 ~arrival ~model ~algorithm ()
  in
  let mon = ShC.run (cfg Core.Runtime.Monitor) in
  let wg = ShC.run (cfg Core.Runtime.Wing_gong) in
  List.iter2
    (fun (m : Shard.shard_report) (w : Shard.shard_report) ->
      let shard = Printf.sprintf "shard %d" m.shard in
      Alcotest.(check (list int))
        (shard ^ ": per-key verdicts match Wing-Gong")
        w.uncertified_keys m.uncertified_keys;
      Alcotest.(check bool) (shard ^ ": some key fell back") true
        (m.fallbacks > 0);
      Alcotest.(check int) (shard ^ ": the oracle counts no fallback") 0
        w.fallbacks;
      Alcotest.(check bool) (shard ^ ": oracle never consults the order")
        true (w.order_failure = None);
      match m.order_failure with
      | None -> Alcotest.fail (shard ^ ": refused order not named")
      | Some (key, failure) ->
          let history =
            (ShC.key_histories (cfg Core.Runtime.Monitor) ~shard:m.shard).(key)
          in
          (* every operation the failure names ("p: inv -> resp @ [..]")
             is one of this key's *)
          let named = occurrences failure " @ [" in
          let of_key =
            Array.fold_left
              (fun acc op -> acc + occurrences failure (one_line_op op))
              0 history
          in
          Alcotest.(check bool) (shard ^ ": failure names operations") true
            (named > 0);
          Alcotest.(check int)
            (shard ^ ": every named operation is of its key")
            named of_key)
    (done_reports mon) (done_reports wg)

module ShL = Shard.Make (Spec.Log_type)

(* [repro load -t log --ops 4000 --faults spike=0.2]: spikes beyond
   [d] make the per-key timestamp order of the log fail replay, so
   Wing-Gong decides those keys, and without a budget one of them ran
   out of memory.  With a per-key node budget the run ends promptly: a
   key that exhausts it is uncertified and named, and every shard
   still reports. *)
let test_budget_names_key () =
  let load_model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let cfg =
    Shard.Config.make ~keys:64 ~zipf:1.0
      ~faults:
        (Sim.Fault.plan
           [ Sim.Fault.spikes ~margin:(Rat.add load_model.u Rat.one) 0.2 ])
      ~max_check_nodes:1_000 ~seed:1 ~shards:4 ~ops:4_000
      ~arrival:(Core.Workload.Poisson { rate = Rat.one })
      ~model:load_model
      ~algorithm:
        (Core.Runtime.Wtlw
           { x = Rat.div_int (Rat.sub load_model.d load_model.eps) 2 })
      ()
  in
  let t0 = Unix.gettimeofday () in
  let t = ShL.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "ends within a second" true (wall < 1.0);
  let reports = done_reports t in
  Alcotest.(check int) "every shard reports" 4 (List.length reports);
  let exhausted =
    List.concat_map (fun (r : Shard.shard_report) -> r.budget_exhausted) reports
  in
  Alcotest.(check bool) "some key exhausted its budget" true (exhausted <> []);
  List.iter
    (fun (r : Shard.shard_report) ->
      List.iter
        (fun (key, nodes) ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d is uncertified" key)
            true
            (List.mem key r.uncertified_keys);
          Alcotest.(check bool) "past the budget" true (nodes > 1_000))
        r.budget_exhausted)
    reports;
  let key, nodes = List.hd exhausted in
  let named = Printf.sprintf "node budget exhausted on key %d after %d nodes" key nodes in
  let text = Format.asprintf "%a" Shard.pp t in
  let diagnostics =
    List.concat_map
      (fun r ->
        Core.Json.(to_list (member "budget_exhausted" r))
        |> Option.value ~default:[]
        |> List.map (fun b -> Core.Json.(to_str (member "diagnostic" b))))
      (shard_reports t)
  in
  Alcotest.(check bool) "report names the key" true (occurrences text named = 1);
  Alcotest.(check int) "json names the key" 1
    (List.length (List.filter (( = ) (Some named)) diagnostics))

(* Each key is checked against the algorithm's order over that key
   alone.  By locality that order must be the whole shard's order
   restricted to the key: run the same keyed shard through
   [run_with_order], project its order onto each key by hand, and
   compare, over a kernel-decided and an undecided type and every
   algorithm, on fault-free runs. *)
module Key_local (T : Spec.Data_type.S) = struct
  module S = Shard.Make (T)
  module KT = Spec.Keyed.Make (T)
  module R = Core.Runtime.Make (Spec.Keyed.Make (T))

  let check algorithm =
    let cfg =
      Shard.Config.make ~keys:12 ~zipf:0.9 ~seed:6 ~shards:2 ~ops:1_200
        ~arrival ~model ~algorithm ()
    in
    let name shard =
      Printf.sprintf "%s/%s shard %d" T.name
        (Core.Runtime.algorithm_name algorithm)
        shard
    in
    for shard = 0 to cfg.shards - 1 do
      let report, order = R.run_with_order (S.runtime_config cfg ~shard) in
      let ops = Array.of_list report.operations in
      let key i = ops.(i).inv.KT.key in
      (* each operation's position among its key's operations *)
      let next = Array.make cfg.keys 0 in
      let pos =
        Array.init (Array.length ops) (fun i ->
            next.(key i) <- next.(key i) + 1;
            next.(key i) - 1)
      in
      let restricted = Array.make cfg.keys [] in
      List.iter
        (fun i -> restricted.(key i) <- pos.(i) :: restricted.(key i))
        (List.rev (Array.to_list (order ops)));
      let key_local = Array.map Array.to_list (S.key_orders cfg ~shard) in
      Alcotest.(check bool)
        (name shard ^ ": several keys ordered")
        true
        (Array.fold_left (fun n o -> if o = [] then n else n + 1) 0 key_local
        > 1);
      Alcotest.(check (array (list int)))
        (name shard ^ ": key-local order = shard order restricted")
        restricted key_local
    done

  let test () =
    List.iter check [ algorithm; Core.Runtime.Centralized; Core.Runtime.Tob ]
end

module Key_local_queue = Key_local (Spec.Fifo_queue)
module Key_local_register = Key_local (Spec.Register)
module Key_local_tree = Key_local (Spec.Tree_type)

(* A shard inserts each completed operation into its key's array as
   it is handed over; the arrays must hold each key's operations in
   the order [Sim.Trace.operations] lists the same run's: by
   invocation time, ties in response order.  Bursts of 8 simultaneous
   arrivals over 2 keys per shard make ties on one key common. *)
let test_key_histories_in_trace_order () =
  let module K = Key_local_queue.KT in
  let module R = Key_local_queue.R in
  let cfg =
    Shard.Config.make ~keys:4 ~seed:5 ~shards:2 ~ops:1_600
      ~arrival:(Core.Workload.Bursty { rate = rat 1 2; size = 8 })
      ~model ~algorithm ()
  in
  let ties = ref 0 in
  for shard = 0 to cfg.shards - 1 do
    let traced = (R.run (ShQ.runtime_config cfg ~shard)).operations in
    let histories = ShQ.key_histories cfg ~shard in
    Array.iteri
      (fun key (history : _ Sim.Trace.operation array) ->
        let expected =
          List.filter_map
            (fun (op : (K.invocation, K.response) Sim.Trace.operation) ->
              if op.inv.key <> key then None
              else
                Some
                  {
                    Sim.Trace.proc = op.proc;
                    inv = op.inv.inv;
                    resp = op.resp;
                    inv_time = op.inv_time;
                    resp_time = op.resp_time;
                  })
            traced
        in
        Alcotest.(check bool)
          (Printf.sprintf "shard %d key %d in trace order" shard key)
          true
          (expected = Array.to_list history);
        for i = 1 to Array.length history - 1 do
          if Rat.equal history.(i - 1).inv_time history.(i).inv_time then
            incr ties
        done)
      histories
  done;
  Alcotest.(check bool) "same-key ties occurred" true (!ties > 0)

(* A horizon the runtime cannot count in int quanta fails every shard
   before it runs.  Each failure carries the runtime's refusal under
   the run site's name and the index of its shard, in the text report
   and in the JSON one, never a raw exception constructor. *)
let test_unrepresentable_horizon_named () =
  let model =
    Sim.Model.make_optimal_eps ~n:4
      ~d:(Rat.of_int 1_000_000_000_000_000_000)
      ~u:(rat 4 1)
  in
  let cfg =
    Shard.Config.make ~shards:3 ~ops:40 ~arrival ~model
      ~algorithm:
        (Core.Runtime.Wtlw { x = Rat.div_int (Rat.sub model.d model.eps) 2 })
      ()
  in
  let t = ShQ.run cfg in
  let refusal = "invalid run: Runtime.run: unrepresentable time horizon" in
  Array.iteri
    (fun i -> function
      | Sweep.Pool.Failed msg ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d names the refusal" i)
            true
            (occurrences msg refusal = 1)
      | Sweep.Pool.Done _ | Sweep.Pool.Skipped ->
          Alcotest.fail (Printf.sprintf "shard %d did not fail" i))
    t.reports;
  Alcotest.(check bool) "not certified" false t.certified;
  let text = Format.asprintf "%a" Shard.pp t in
  let errors =
    List.map
      (fun r -> Option.value ~default:"" Core.Json.(to_str (member "error" r)))
      (shard_reports t)
  in
  for i = 0 to cfg.shards - 1 do
    Alcotest.(check int)
      (Printf.sprintf "report names shard %d" i)
      1
      (occurrences text (Printf.sprintf "shard %d: FAILED %s" i refusal));
    Alcotest.(check int)
      (Printf.sprintf "json names shard %d" i)
      1
      (occurrences (List.nth errors i) refusal)
  done;
  Alcotest.(check int) "no raw constructor in the report" 0
    (occurrences text "Invalid_argument(");
  Alcotest.(check int) "no raw constructor in the json" 0
    (occurrences (String.concat "\n" errors) "Invalid_argument(")

(* Without the reliable channel the network can deliver a request or a
   reply twice.  The centralized coordinator must apply each operation
   once and a client must drop a reply that is not for its pending
   operation: before, a duplicated reply completed an operation that
   was no longer pending, and the shard failed as an invalid run. *)
let test_centralized_duplicates () =
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let failed_with_pending = ref 0 in
  List.iter
    (fun key ->
      let t =
        Shard.run
          (Shard.Config.make ~keys:64 ~zipf:1.0
             ~faults:
               (Sim.Fault.plan
                  [ Sim.Fault.drops 0.05; Sim.Fault.duplicates 0.02 ])
             ~seed:1 ~shards:4 ~ops:3_000
             ~arrival:(Core.Workload.Poisson { rate = Rat.one })
             ~model ~algorithm:Core.Runtime.Centralized ())
          (Option.get (Sweep.Packed_type.find key))
      in
      Alcotest.(check bool)
        (key ^ ": duplicates injected") true (t.faults.duplicated > 0);
      Array.iteri
        (fun i -> function
          | Sweep.Pool.Done (r : Shard.shard_report) ->
              if (not r.linearizable) && r.pending > 0 then
                incr failed_with_pending
          | Sweep.Pool.Failed msg ->
              Alcotest.failf "%s shard %d: FAILED %s" key i msg
          | Sweep.Pool.Skipped -> Alcotest.failf "%s shard %d: skipped" key i)
        t.reports;
      (* A dropped reply leaves an applied operation pending, and the
         per-key checkers judge completed operations only: a key that
         then fails is flagged, never a violation. *)
      List.iter
        (fun line ->
          if String.starts_with ~prefix:"shard=" line then
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s names no violation" key line)
              false
              (List.mem "VIOLATION" (String.split_on_char ' ' line)))
        (String.split_on_char '\n' (Shard.fingerprint t)))
    [ "tree"; "queue"; "register" ];
  Alcotest.(check bool)
    "some key failed while operations were pending" true
    (!failed_with_pending > 0)

let () =
  Alcotest.run "shard"
    [
      ( "shard",
        [
          Alcotest.test_case "shard vs product equivalence" `Quick
            test_shard_vs_product_equivalence;
          Alcotest.test_case "fingerprint independent of jobs" `Quick
            test_fingerprint_independent_of_jobs;
          Alcotest.test_case "json report reads back" `Quick
            test_json_reads_back;
          Alcotest.test_case "multi-key certified, ops conserved" `Quick
            test_multi_key_run_certified_and_conserved;
          Alcotest.test_case "monitor matches wing-gong, no fallback" `Slow
            test_monitor_matches_wing_gong;
          Alcotest.test_case "refused per-key order named" `Quick
            test_refused_order_named;
          Alcotest.test_case "node budget names the exhausted key" `Quick
            test_budget_names_key;
          Alcotest.test_case "key-local order, queue" `Quick
            Key_local_queue.test;
          Alcotest.test_case "key-local order, register" `Quick
            Key_local_register.test;
          Alcotest.test_case "key-local order, tree" `Quick
            Key_local_tree.test;
          Alcotest.test_case "key histories in trace order" `Quick
            test_key_histories_in_trace_order;
          Alcotest.test_case "unrepresentable horizon named per shard" `Quick
            test_unrepresentable_horizon_named;
          Alcotest.test_case "centralized survives duplicates" `Quick
            test_centralized_duplicates;
        ] );
    ]
