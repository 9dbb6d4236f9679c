type section = {
  name : string;
  description : string;
  prepare : unit -> unit -> int;
}

(* Small fractions with denominators from a fixed set (lcm <= 420), so
   running sums stay far from Overflow while still exercising the
   frac/frac paths: add, sub, mul and both branches of compare. *)
let rat_kernel () =
  let ops = 300_000 in
  let acc = ref Rat.zero in
  for i = 1 to ops do
    let a = Rat.make ((i mod 97) - 48) ((i mod 7) + 1) in
    let b = Rat.make ((i mod 61) - 30) ((i mod 5) + 2) in
    let s = Rat.add a b in
    let p = Rat.mul a b in
    let d = if Rat.compare s p >= 0 then Rat.sub s p else Rat.sub p s in
    acc := Rat.add !acc d;
    if i land 4095 = 0 then acc := Rat.make (Rat.sign !acc) 3
  done;
  ignore (Sys.opaque_identity !acc);
  ops

(* The streaming bench's workload: [per_proc] closed-loop FIFO-queue
   operations per process on the 4-process optimal-epsilon model, unit
   think time 1/2, seeded delays.  retain_events:false keeps memory
   O(operations) so the allocation profile reflects the hot path, not
   trace retention. *)
let queue_events ~per_proc () =
  let rat = Rat.make in
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let x = rat 3 1 in
  let offsets = [| Rat.zero; rat 1 1; rat (-1) 1; rat 3 2 |] in
  let module Q = Spec.Fifo_queue in
  let module QAlgo = Core.Wtlw.Make (Q) in
  let cluster =
    QAlgo.create ~retain_events:false ~model ~x ~offsets
      ~delay:(Sim.Net.random_model ~seed:9 model) ()
  in
  let engine = cluster.engine in
  let rng = Random.State.make [| 9 |] in
  let remaining = Array.make model.n per_proc in
  Sim.Engine.set_response_callback engine (fun ~proc ~inv:_ ~resp:_ ~time ->
      if remaining.(proc) > 0 then begin
        remaining.(proc) <- remaining.(proc) - 1;
        Sim.Engine.schedule_invoke engine ~at:(Rat.add time (rat 1 2)) ~proc
          (Q.gen_invocation rng)
      end);
  for proc = 0 to model.n - 1 do
    remaining.(proc) <- remaining.(proc) - 1;
    Sim.Engine.schedule_invoke engine ~at:(Rat.make proc (2 * model.n)) ~proc
      (Q.gen_invocation rng)
  done;
  Sim.Engine.run ~max_events:10_000_000 engine;
  Sim.Trace.event_count (Sim.Engine.trace engine)

(* The [repro load] pipeline at bench scale: tagged diurnal generator
   over a Zipf keyspace, sharded clusters, per-key certification,
   merged histograms — run inline (jobs = 1) so the allocation profile
   has no domain-spawn noise. *)
let load_events ~data_type ~ops () =
  let rat = Rat.make in
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let module T = (val data_type : Spec.Data_type.S) in
  let module Sh = Shard.Make (T) in
  let cfg =
    Shard.Config.make ~keys:32 ~zipf:0.8 ~seed:9 ~shards:4 ~ops
      ~arrival:
        (Core.Workload.Diurnal
           { rate = rat 1 4; period = rat 400 1; trough = rat 1 10 })
      ~model
      ~algorithm:(Core.Runtime.Wtlw { x = rat 3 1 })
      ()
  in
  let t = Sh.run ~jobs:1 cfg in
  if not t.certified then failwith "load bench section: run not certified";
  t.events

(* The same pipeline on its lossy leg: a register over the reliable
   channel, with 5% of transmissions dropped and 2% duplicated, so the
   retransmission timers, acks, hold-back buffers and the wrapped ctx
   all run.  Poisson arrivals over a Zipf(1.0) keyspace of 64 keys. *)
let lossy_load_events ~ops () =
  let rat = Rat.make in
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  let module Sh = Shard.Make (Spec.Register) in
  let cfg =
    Shard.Config.reliable
      (Shard.Config.make ~keys:64 ~zipf:1.0 ~seed:9 ~shards:4 ~ops
         ~faults:
           (Sim.Fault.plan [ Sim.Fault.drops 0.05; Sim.Fault.duplicates 0.02 ])
         ~arrival:(Core.Workload.Poisson { rate = Rat.one })
         ~model
         ~algorithm:(Core.Runtime.Wtlw { x = rat 9 2 })
         ())
  in
  let t = Sh.run ~jobs:1 cfg in
  if not t.certified then failwith "lossy load bench section: run not certified";
  t.events

(* The durable-campaign checkpoint path: frame, checksum and append
   [records] journal records to a scratch file (one fsync at the end,
   so the metric tracks the framing cost, not disk latency), then scan
   them back with full checksum validation. *)
let journal_roundtrip ~records () =
  let path = Filename.temp_file "repro-perf-journal" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fp = "perf-journal 1" in
      let w = Sweep.Journal.writer ~sync_every:records ~path ~fp () in
      for i = 1 to records do
        Sweep.Journal.append w
          ~key:(Printf.sprintf "cell-%06d" i)
          ~input_fp:(i * 2654435761)
          (i, i * i, "payload")
      done;
      Sweep.Journal.close w;
      let loaded, diags = Sweep.Journal.load ~path ~fp in
      if diags <> [] then failwith "journal bench section: dirty scan";
      List.length (loaded : (int * int * string) Sweep.Journal.record list))

(* The scenario pipeline end to end: a fixed generated-workload
   scenario (Poisson arrivals over a Zipf keyspace on the FIFO queue)
   lowered through the executor, run, certified and judged against its
   temporal predicate.  Everything is pinned, so the allocation profile
   tracks the lowering + run + predicate-evaluation path. *)
let scenario_events ~ops () =
  let rat = Rat.make in
  let model = Sim.Model.make ~n:4 ~d:(rat 8 1) ~u:(rat 2 1) ~eps:(rat 1 2) in
  let s =
    Scenario.make ~name:"perf-scenario" ~dt:"queue" ~model
      ~algorithm:(Scenario.Wtlw { x = rat 3 1; knob = Core.Ablation.Paper })
      ~workload:
        (Scenario.Generated
           {
             arrival = Core.Workload.Poisson { rate = rat 1 4 };
             zipf = 0.9;
             keys = 16;
             ops;
           })
      ~seed:9 ~max_events:10_000_000
      ~predicate:(Scenario.Finally (Scenario.Pending_le 0))
      ()
  in
  let o = Scenario.run s in
  if not (Scenario.Exec.passes o) then
    failwith "scenario bench section: run did not certify";
  o.Scenario.Exec.events

(* The scenario codec on its own: [count] generated scenarios (drawn
   while preparing, outside the measurement) each rendered and decoded
   again, which must give back an equal scenario.  One event per
   scenario. *)
let codec_round_trips ~count () =
  let scenarios = Scenario.Generate.batch ~seed:1 ~count in
  fun () ->
    List.iter
      (fun s ->
        match Scenario.of_string (Scenario.to_string s) with
        | Ok s' when Scenario.equal s s' -> ()
        | _ -> failwith "codec bench section: a round trip changed a scenario")
      scenarios;
    count

(* The [repro check] path on one generated history of a monitored
   type: the columns, the type's kernel and the certificate replay of
   [Monitor.Make(T).check].  The history is generated while preparing,
   outside the measurement.  With [empty] it must hold an empty
   observation, so the empty-coverage check runs too. *)
let monitor_history data_type ~seed ~ops ~empty () =
  let module T = (val data_type : Spec.Data_type.S) in
  let module M = Monitor.Make (T) in
  let vw = Option.get M.viewer in
  let history = M.generate ~seed ~n:ops () in
  let is_empty (o : M.op) =
    match vw.obs o.inv o.resp with Take None | Peek None -> true | _ -> false
  in
  if empty && not (List.exists is_empty history) then
    failwith "monitor bench section: history has no empty observation";
  fun () ->
    let r = M.check history in
    if r.method_ <> Monitor.Specialized vw.kind then
      failwith "monitor bench section: the kernel did not certify";
    ops

(* The [repro sweep] path: the reference grid (every bundled type x
   three algorithms x two model points x both channel legs) at seeds 1
   and 2 — 240 small closed-loop cells lowered, run and certified
   inline.  Most cells have no monitor or fall outside its vocabulary,
   so this is the section that measures the certification stage after
   the kernels.  Its events are the cells' operations. *)
let sweep_cells ~seeds () =
  let t = Sweep.run { Sweep.default_grid with seeds } in
  Array.fold_left
    (fun ops -> function
      | Sweep.Pool.Done (v : Sweep.verdict) when v.certified ->
          ops + v.operations
      | _ -> failwith "sweep bench section: a cell did not certify")
    0 t.results

(* The certify path alone ([Core.Runtime.Make.certify]: the kernel,
   then the protocol's own order, then Wing-Gong) over the reference
   sweep grid's tiny histories.  Preparing runs each of the grid's
   cells at [seeds] unchecked and keeps its completed operations and
   its protocol order; the measured run certifies them all, as the
   sweep does after each run.  Its events are the operations
   certified. *)
let certify_cells ~seeds () =
  let grid = { Sweep.default_grid with seeds } in
  let cells =
    List.map
      (fun (cell : Scenario.Grid.cell) ->
        let (module E : Scenario.Packed_type.RUNNER) =
          Scenario.Packed_type.runner cell.dt
        in
        match E.config_of (Scenario.of_sweep_cell grid cell) with
        | Error e -> failwith ("certify bench section: " ^ e)
        | Ok cfg ->
            let report, order = E.R.run_with_order { cfg with check = false } in
            let ops = Array.of_list report.operations in
            fun () ->
              let r =
                E.R.certify ?max_nodes:cfg.max_check_nodes ~order
                  ~checker:cfg.checker ops
              in
              if not r.linearizable then
                failwith "certify bench section: a history did not certify";
              Array.length ops)
      (Scenario.Grid.cells grid)
  in
  fun () -> List.fold_left (fun ops certify -> ops + certify ()) 0 cells

let sections =
  [
    {
      name = "rat-kernel";
      description = "300k-op rational arithmetic loop (add/sub/mul/compare)";
      prepare = (fun () -> rat_kernel);
    };
    {
      name = "engine-queue-8k";
      description =
        "8000-op closed-loop FIFO queue, 4 processes, optimal-epsilon model";
      prepare = (fun () -> queue_events ~per_proc:2000);
    };
    {
      name = "load-shard-4k";
      description =
        "4000-op diurnal Zipf load over 4 FIFO-queue shards, certified per \
         key";
      prepare =
        (fun () -> load_events ~data_type:(module Spec.Fifo_queue) ~ops:4_000);
    };
    {
      name = "load-tree-4k";
      description =
        "the load-shard-4k stream over 4 rooted-tree shards: no kernel \
         decides a key, so each is certified by the algorithm's own \
         order over that key";
      prepare =
        (fun () -> load_events ~data_type:(module Spec.Tree_type) ~ops:4_000);
    };
    {
      name = "load-lossy-4k";
      description =
        "4000-op Poisson Zipf load of a register over the reliable channel, \
         5% drops and 2% duplicates, 4 shards, certified per key";
      prepare = (fun () -> lossy_load_events ~ops:4_000);
    };
    {
      name = "journal-1k";
      description =
        "1000 checkpoint records framed, checksummed, appended and scanned \
         back";
      prepare = (fun () -> journal_roundtrip ~records:1_000);
    };
    {
      name = "scenario-1k";
      description =
        "1000-op generated-workload scenario lowered, run, certified and \
         judged against its temporal predicate";
      prepare = (fun () -> scenario_events ~ops:1_000);
    };
    {
      name = "codec-1k";
      description =
        "1000 generated scenarios each rendered and decoded again, one \
         event per scenario";
      prepare = codec_round_trips ~count:1_000;
    };
    {
      name = "sweep-cells-240";
      description =
        "the reference sweep grid at seeds 1 and 2: 240 closed-loop cells \
         over every type, algorithm, model point and channel leg, certified";
      prepare = (fun () -> sweep_cells ~seeds:[ 1; 2 ]);
    };
    {
      name = "certify-cells-240";
      description =
        "the sweep-cells-240 cells' histories and protocol orders, built \
         while preparing, certified as each cell's run certifies them";
      prepare = certify_cells ~seeds:[ 1; 2 ];
    };
    {
      name = "monitor-queue-64k";
      description =
        "64 000-operation generated queue history with an empty \
         observation, certified by the queue monitor";
      prepare =
        monitor_history
          (module Spec.Fifo_queue)
          ~seed:3 ~ops:64_000 ~empty:true;
    };
    {
      name = "monitor-register-16k";
      description =
        "16 000-operation generated register history, certified by the \
         register monitor";
      prepare =
        monitor_history (module Spec.Register) ~seed:3 ~ops:16_000 ~empty:false;
    };
    {
      name = "monitor-pqueue-16k";
      description =
        "16 000-operation generated priority-queue history with an empty \
         observation, certified by the priority-queue monitor";
      prepare =
        monitor_history
          (module Spec.Priority_queue)
          ~seed:3 ~ops:16_000 ~empty:true;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) sections

let phases = 64

(* [words] words of blocks that die at once: they only move the point
   at which the minor heap next fills. *)
let advance words =
  for i = 1 to words / 2 do
    ignore (Sys.opaque_identity (ref i))
  done

(* The minor heap is emptied between preparing and measuring, so young
   data left by module initialisation (the executor instances, any
   toplevel table) or by [prepare] is never promoted on the section's
   account.  The run then starts [phase] sixty-fourths of the minor
   heap into it, and a last minor collection after the run promotes
   what the run left live, so that counts whatever the phase. *)
let measure ?(phase = 0) s =
  let run = s.prepare () in
  Gc.minor ();
  advance (phase mod phases * (Gc.get ()).minor_heap_size / phases);
  let events, m = Measure.measure run in
  let before = Gc.quick_stat () in
  Gc.minor ();
  let after = Gc.quick_stat () in
  ( events,
    {
      m with
      promoted_words =
        m.promoted_words +. after.promoted_words -. before.promoted_words;
      major_words = m.major_words +. after.major_words -. before.major_words;
    } )
