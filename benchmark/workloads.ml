(* The five workloads.  Each one pushes a fixed, seed-generated input
   through one of the library's public pipelines as fast as it can
   (these are batch pipelines, not request servers), and checks the
   answer outside the timer.

   Every workload has two forms:
   - the pipeline: one public entry point ([Shard.run],
     [Monitor.Make(T).check], [Sweep.run_durable], [Scenario.run]),
     timed as a whole with tracing off;
   - the traced recomposition: the same work rebuilt from the
     library's finer public calls, each wrapped in a {!Tracer} span,
     which gives the per-layer numbers.  Its outcome digest must equal
     the pipeline's, so the recomposition is checked to do the same
     work. *)

module Metrics = Core.Metrics
module Workload = Core.Workload
module Pool = Sweep.Pool
module V = Spec.Adt_view

(* What a run produced, judged outside the timer. *)
type outcome = {
  attempted : int;  (** units attempted (see {!t.units}) *)
  failed : int;
  ops : int;  (** certified operations *)
  latency : Metrics.Hist.t;  (** operation latency in simulated time *)
  digest : string;
      (** deterministic outcome key: equal across repetitions and
          between the pipeline and its traced recomposition *)
  fingerprint : string;
      (** digest of the library's own fingerprint (sweep, load) or of
          the outcome; informational *)
  problems : string list;  (** failed correctness checks *)
}

type job = {
  pipeline : unit -> unit -> outcome;
      (** the timed call; returns the untimed check *)
  traced : unit -> unit -> outcome;
      (** the traced recomposition; returns the untimed check *)
}

type t = {
  name : string;
  units : string;  (** what [attempted] and [failed] count *)
  setup : Tracer.t -> scale:float -> seed:int -> job;
      (** builds configs and generates inputs; generation is a
          [Workload] span when the tracer is on *)
}

let hex s = Digest.to_hex (Digest.string s)

(* Sizes are stated at scale 1; the smoke test runs at 1/100. *)
let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

(* Scratch space inside the working directory: the benchmark reads
   and writes nothing outside the checkout it runs in. *)
let scratch_dir = ".benchmark"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Certification through the split monitor calls                       *)

type verdict = { linearizable : bool; method_ : Monitor.method_ }

let verdict_string v =
  Printf.sprintf "%b/%s" v.linearizable (Monitor.method_to_string v.method_)

(* [Monitor.Make(T).check] taken apart: records, kernel, certificate
   replay and Wing-Gong fallback are separate spans.  The decisions
   mirror [check] exactly, so the verdict must be the same. *)
module Certify (T : Spec.Data_type.S) = struct
  module M = Monitor.Make (T)

  let fallback tr ?max_nodes ops =
    Tracer.add tr "lin.fallbacks" 1.;
    Tracer.span tr Tracer.Lin (fun () ->
        match M.Fallback.check ?max_nodes ops with
        | w -> { linearizable = Option.is_some w; method_ = Monitor.Wing_gong }
        | exception (Lin.Checker.Node_budget_exceeded _ as e) ->
            Tracer.add tr "lin.budget_failures" 1.;
            raise e)

  let check tr ?max_nodes (ops : M.op list) =
    Tracer.add tr "monitor.checks" 1.;
    match M.viewer with
    | None -> fallback tr ?max_nodes ops
    | Some vw -> (
        let arr, records, opaque =
          Tracer.span tr Tracer.Records (fun () ->
              let arr = Array.of_list ops in
              let records = Array.mapi (M.record_of vw) arr in
              ( arr,
                records,
                Array.exists (fun r -> r.Monitor.Record.obs = V.Opaque) records ))
        in
        if opaque then fallback tr ?max_nodes ops
        else
          let kind = vw.V.kind in
          match
            Tracer.span tr (Tracer.Kernel kind) (fun () ->
                Monitor.kernel_for kind records)
          with
          | Monitor.Record.Violation _ ->
              { linearizable = false; method_ = Monitor.Specialized kind }
          | Monitor.Record.Unknown _ -> fallback tr ?max_nodes ops
          | Monitor.Record.Order order -> (
              match
                Tracer.span tr Tracer.Verify (fun () ->
                    M.verify arr records order)
              with
              | Ok _ ->
                  Tracer.add tr "monitor.certified" 1.;
                  { linearizable = true; method_ = Monitor.Specialized kind }
              | Error _ ->
                  Tracer.add tr "monitor.cert_rejects" 1.;
                  fallback tr ?max_nodes ops))
end

(* ------------------------------------------------------------------ *)
(* Handler instrumentation for the rebuilt shards                      *)

(* Wrap a handler triple so that each call into it is a [layer] span
   and each call it makes back through its ctx (send, broadcast,
   timers, respond) is a [callee] span.  The engine reuses one ctx per
   process, so the wrapped ctx is cached per process and re-stamped
   with the event's clocks; a ctx built fresh per event (the reliable
   channel's application ctx) is wrapped afresh. *)
let instrument (type msg tag inv resp) tr ~n ~layer ~callee ~sends
    (h : (msg, tag, inv, resp) Sim.Engine.handlers) :
    (msg, tag, inv, resp) Sim.Engine.handlers =
  let cache :
      ((msg, tag, resp) Sim.Engine.ctx * (msg, tag, resp) Sim.Engine.ctx)
      option
      array =
    Array.make n None
  in
  let through f =
    Tracer.enter tr callee;
    match f () with
    | v ->
        Tracer.leave tr;
        v
    | exception e ->
        Tracer.leave tr;
        raise e
  in
  let wrap (c : (msg, tag, resp) Sim.Engine.ctx) =
    match cache.(c.self) with
    | Some (orig, w) when orig == c ->
        w.real_time <- c.real_time;
        w.local_time <- c.local_time;
        w
    | _ ->
        let w =
          {
            c with
            Sim.Engine.send =
              (fun ~dst m ->
                incr sends;
                through (fun () -> c.send ~dst m));
            broadcast =
              (fun m ->
                sends := !sends + c.n - 1;
                through (fun () -> c.broadcast m));
            set_timer_after =
              (fun dur tag -> through (fun () -> c.set_timer_after dur tag));
            cancel_timer = (fun id -> through (fun () -> c.cancel_timer id));
            respond = (fun r -> through (fun () -> c.respond r));
          }
        in
        cache.(c.self) <- Some (c, w);
        w
  in
  let call f =
    Tracer.enter tr layer;
    match f () with
    | () -> Tracer.leave tr
    | exception e ->
        Tracer.leave tr;
        raise e
  in
  {
    Sim.Engine.on_invoke = (fun c inv -> call (fun () -> h.on_invoke (wrap c) inv));
    on_receive =
      (fun c ~src m -> call (fun () -> h.on_receive (wrap c) ~src m));
    on_timer = (fun c tag -> call (fun () -> h.on_timer (wrap c) tag));
  }

(* ------------------------------------------------------------------ *)
(* load-queue, load-register-lossy: [Shard.run ~jobs:1]                *)

type load_spec = {
  data_type : string;  (** a [Sweep.Packed_type] key *)
  x : Rat.t;
  ops : int;
  keys : int;
  zipf : float;
  arrival : Workload.arrival;
  faults : Sim.Fault.plan;
  reliable : bool;
}

let load_shards = 4
let load_max_nodes = 200_000

let load_model =
  Sim.Model.make_optimal_eps ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)

let load_config spec ~scale ~seed =
  let cfg =
    Shard.Config.make ~keys:spec.keys ~zipf:spec.zipf ~faults:spec.faults
      ~checker:Core.Runtime.Monitor ~max_check_nodes:load_max_nodes ~seed
      ~shards:load_shards ~ops:(scaled scale spec.ops) ~arrival:spec.arrival
      ~model:load_model
      ~algorithm:(Core.Runtime.Wtlw { x = spec.x })
      ()
  in
  if spec.reliable then Shard.Config.reliable cfg else cfg

(* One shard's counts: the recomposition is checked against these.
   Operation and key counts depend only on routing; message and event
   counts also check that the rebuilt shard replays the same run. *)
let shard_digest ~shard ~operations ~keys ~messages ~events =
  Printf.sprintf "shard=%d ops=%d keys=%d messages=%d events=%d" shard operations
    keys messages events

let load_outcome (cfg : Shard.Config.t) (t : Shard.t) =
  let certified_ops = ref 0 in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i -> function
           | Pool.Done (r : Shard.shard_report) ->
               if r.certified then certified_ops := !certified_ops + r.operations;
               shard_digest ~shard:r.shard ~operations:r.operations ~keys:r.keys
                 ~messages:r.messages ~events:r.events
           | Pool.Failed msg -> Printf.sprintf "shard=%d failed: %s" i msg
           | Pool.Skipped -> Printf.sprintf "shard=%d skipped" i)
         t.reports)
  in
  {
    attempted = cfg.ops;
    failed = cfg.ops - !certified_ops;
    ops = !certified_ops;
    latency = t.hist;
    digest = String.concat "\n" rows;
    fingerprint = hex (Shard.fingerprint t);
    problems =
      (if t.certified then []
       else [ "load run not certified: " ^ String.concat "; " rows ]);
  }

(* FNV-1a, 32-bit, as [Shard] derives its per-shard seeds. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

module Load (T : Spec.Data_type.S) = struct
  module KT = Spec.Keyed.Make (T)
  module W = Core.Wtlw.Make (KT)
  module Sem = Spec.Data_type.Semantics (KT)
  module C = Certify (T)

  (* The per-shard network and fault seed [Shard] uses: FNV-1a of the
     shard's canonical coordinates.  With it the rebuilt shard replays
     the same run, so the traced run does the pipeline's work. *)
  let shard_seed (cfg : Shard.Config.t) ~shard =
    let m = cfg.model in
    fnv1a
      (Printf.sprintf
         "shard=%d/%d;type=%s;algo=%s;n=%d;d=%s;u=%s;eps=%s;ops=%d;keys=%d;arrival=%s;zipf=%g;faults=%s;leg=%s;seed=%d"
         shard cfg.shards T.name
         (Core.Runtime.algorithm_name cfg.algorithm)
         m.n (Rat.to_string m.d) (Rat.to_string m.u) (Rat.to_string m.eps)
         cfg.ops cfg.keys
         (Workload.arrival_label cfg.arrival)
         cfg.zipf
         (Sim.Fault.describe cfg.faults)
         (match cfg.channel with None -> "raw" | Some _ -> "reliable")
         cfg.seed)

  type shard_result = {
    operations : int;
    keys : int;
    certified : bool;
    hist : Metrics.Hist.t;
    messages : int;
    events : int;
    faults : int;
  }

  (* What the simulation of one shard left behind. *)
  type sim = {
    ops : (KT.invocation, KT.response) Sim.Trace.operation list;
    healthy : bool;  (** complete, untruncated, admissible *)
    messages : int;
    events : int;
    faults : int;
  }

  (* One shard of [Shard.Make(T).run_shard], rebuilt from
     [Workload.Gen]/[Route], [Sim.Engine.create] and the Algorithm 1
     handler triple (under [Reliable.wrap] for the lossy leg), driven
     by the same backpressure-clamped paced loop as the runtime. *)
  let run_shard tr (cfg : Shard.Config.t) ~shard =
    let m = cfg.model in
    let x =
      match cfg.algorithm with
      | Core.Runtime.Wtlw { x } -> x
      | _ -> invalid_arg "load workloads run Algorithm 1"
    in
    let sseed = shard_seed cfg ~shard in
    let items = ref 0 and kept = ref 0 in
    let gen =
      Workload.Gen.create ~arrival:cfg.arrival ~zipf:cfg.zipf ~keys:cfg.keys
        ~ops:cfg.ops ~seed:cfg.seed
        ~invocation:(fun rng ~key:_ ~seq ->
          incr items;
          T.gen_tagged rng ~tag:seq)
        ()
    in
    let route =
      Workload.Route.create ~procs:m.n
        ~keep:(fun k -> k mod cfg.shards = shard)
        gen
    in
    let next ~proc =
      Tracer.enter tr Tracer.Workload;
      let r = Workload.Route.next route ~proc in
      Tracer.leave tr;
      match r with
      | None -> None
      | Some (at, item) ->
          incr kept;
          Some (at, { KT.key = item.key; inv = item.inv })
    in
    let max_events = (200 * (cfg.ops / cfg.shards)) + 200_000 in
    let faults = { cfg.faults with seed = sseed } in
    let delay = Sim.Net.random_model ~seed:sseed m in
    let offsets = Array.make m.n Rat.zero in
    let hist = Metrics.Hist.create () in
    let app_sends = ref 0 and wire_sends = ref 0 in
    let drive (type msg tag) ~(model : Sim.Model.t)
        (handlers : (msg, tag, KT.invocation, KT.response) Sim.Engine.handlers)
        =
      let trace, healthy =
        Tracer.span tr Tracer.Engine (fun () ->
          let engine =
            Sim.Engine.create ~retain_events:false ~faults ~model ~offsets
              ~delay ~handlers ()
          in
          let trace = Sim.Engine.trace engine in
          (* the runtime's streaming report sinks *)
          let by_op = Metrics.Grouped.create () in
          let by_kind = Metrics.Grouped.create () in
          Sim.Trace.on_operation trace (fun op ->
              let l = Metrics.latency op in
              Metrics.Grouped.add by_op (KT.op_of op.inv) l;
              Metrics.Grouped.add by_kind (Sem.kind_of op.inv) l;
              Metrics.Hist.add hist l);
          Sim.Engine.set_response_callback engine
            (fun ~proc ~inv:_ ~resp:_ ~time ->
              match next ~proc with
              | None -> ()
              | Some (at, inv) ->
                  Sim.Engine.schedule_invoke engine ~at:(Rat.max at time) ~proc
                    inv);
          for proc = 0 to model.n - 1 do
            match next ~proc with
            | None -> ()
            | Some (at, inv) -> Sim.Engine.schedule_invoke engine ~at ~proc inv
          done;
          let truncated =
            match Sim.Engine.run ~max_events engine with
            | () -> false
            | exception Sim.Engine.Step_limit_exceeded _ -> true
          in
          let healthy =
            Sim.Trace.pending_count trace = 0
            && (not truncated)
            && Sim.Trace.delays_admissible model trace
            && Sim.Model.skew_valid model (Sim.Engine.effective_offsets engine)
          in
          (trace, healthy))
      in
      {
        ops =
          Tracer.span tr Tracer.Shard_group (fun () -> Sim.Trace.operations trace);
        healthy;
        messages = Sim.Trace.send_count trace;
        events = Sim.Trace.event_count trace;
        faults = Sim.Trace.total_faults (Sim.Trace.fault_counts trace);
      }
    in
    let protocol model =
      W.protocol ~timing:(Core.Wtlw.default_timing model ~x)
        (W.fresh_states ~n:model.Sim.Model.n)
    in
    let run =
      match cfg.channel with
      | None ->
          drive ~model:m
            (instrument tr ~n:m.n ~layer:Tracer.Protocol ~callee:Tracer.Engine
               ~sends:app_sends (protocol m))
      | Some config ->
          let effective =
            Core.Reliable.inflated_model
              ~extra_skew:(Sim.Fault.extra_skew faults)
              ~max_spike:(Sim.Fault.max_spike faults) config m
          in
          let wire, stats =
            Core.Reliable.wrap ~config ~n:effective.n
              (instrument tr ~n:m.n ~layer:Tracer.Protocol
                 ~callee:Tracer.Reliable ~sends:app_sends (protocol effective))
          in
          let r =
            drive ~model:effective
              (instrument tr ~n:m.n ~layer:Tracer.Reliable
                 ~callee:Tracer.Engine ~sends:wire_sends wire)
          in
          Tracer.add tr "reliable.retransmits" (float stats.retransmits);
          r
    in
    Tracer.add tr "workload.items" (float !items);
    Tracer.add tr "workload.kept" (float !kept);
    Tracer.add tr "protocol.sends" (float !app_sends);
    (* Per-key grouping, as [run_shard] does it. *)
    let groups =
      Tracer.span tr Tracer.Shard_group (fun () ->
          let by_key = Hashtbl.create 64 in
          List.iter
            (fun (op : (KT.invocation, KT.response) Sim.Trace.operation) ->
              let key = op.inv.KT.key in
              let projected =
                {
                  Sim.Trace.proc = op.proc;
                  inv = op.inv.KT.inv;
                  resp = op.resp;
                  inv_time = op.inv_time;
                  resp_time = op.resp_time;
                }
              in
              match Hashtbl.find_opt by_key key with
              | Some r -> r := projected :: !r
              | None -> Hashtbl.add by_key key (ref [ projected ]))
            run.ops;
          List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key [])
          |> List.map (fun k -> (k, List.rev !(Hashtbl.find by_key k))))
    in
    let uncertified =
      List.filter
        (fun (key, ops) ->
          Tracer.coarse tr Tracer.Harness
            (Printf.sprintf "shard %d key %d" shard key)
            (fun () ->
              match C.check tr ~max_nodes:load_max_nodes ops with
              | v -> not v.linearizable
              | exception Lin.Checker.Node_budget_exceeded _ -> true))
        groups
    in
    {
      operations = List.length run.ops;
      keys = List.length groups;
      certified = run.healthy && uncertified = [];
      hist;
      messages = run.messages;
      events = run.events;
      faults = run.faults;
    }

  let traced tr (cfg : Shard.Config.t) =
    let results =
      List.init cfg.shards (fun shard ->
          Tracer.coarse tr Tracer.Harness (Printf.sprintf "shard %d" shard)
            (fun () -> run_shard tr cfg ~shard))
    in
    let hist, operations, certified_ops, messages =
      Tracer.span tr Tracer.Shard_merge (fun () ->
          let hist = Metrics.Hist.create () in
          List.fold_left
            (fun (h, ops, cert, msgs) r ->
              Metrics.Hist.merge h r.hist;
              ( h,
                ops + r.operations,
                (if r.certified then cert + r.operations else cert),
                msgs + r.messages ))
            (hist, 0, 0, 0) results)
    in
    fun () ->
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
      Tracer.add tr "messages" (float messages);
      Tracer.add tr "engine.events" (float (sum (fun r -> r.events)));
      Tracer.add tr "fault.injected" (float (sum (fun r -> r.faults)));
      Tracer.add tr "shard.keys" (float (sum (fun r -> r.keys)));
      let rows =
        List.mapi
          (fun shard r ->
            shard_digest ~shard ~operations:r.operations ~keys:r.keys
              ~messages:r.messages ~events:r.events)
          results
      in
      {
        attempted = cfg.ops;
        failed = cfg.ops - certified_ops;
        ops = certified_ops;
        latency = hist;
        digest = String.concat "\n" rows;
        fingerprint = "";
        problems =
          (if List.for_all (fun r -> r.certified) results && operations = cfg.ops
           then []
           else [ "traced load run not certified: " ^ String.concat "; " rows ]);
      }
end

let load_workload ~name spec =
  {
    name;
    units = "operations";
    setup =
      (fun tr ~scale ~seed ->
        let cfg = load_config spec ~scale ~seed in
        let pt = Option.get (Sweep.Packed_type.find spec.data_type) in
        let (module T : Spec.Data_type.S) = Sweep.Packed_type.modl pt in
        let module L = Load (T) in
        {
          pipeline =
            (fun () ->
              let t = Shard.run ~jobs:1 cfg pt in
              fun () -> load_outcome cfg t);
          traced = (fun () -> L.traced tr cfg);
        });
  }

let queue_spec =
  {
    data_type = "queue";
    x = Rat.of_int 3;
    ops = 150_000;
    keys = 32;
    zipf = 0.8;
    arrival =
      Workload.Diurnal
        { rate = Rat.make 1 4; period = Rat.of_int 400; trough = Rat.make 1 10 };
    faults = Sim.Fault.none;
    reliable = false;
  }

let lossy_register_spec =
  {
    data_type = "register";
    x = Rat.make 9 2;
    ops = 150_000;
    keys = 64;
    zipf = 1.0;
    arrival = Workload.Poisson { rate = Rat.one };
    faults = Sim.Fault.plan [ Sim.Fault.drops 0.05; Sim.Fault.duplicates 0.02 ];
    reliable = true;
  }

(* The headline [repro load] path: generation, engine, protocol,
   per-key monitors and shard merge all run, and each of the four
   shards regenerates the whole stream. *)
let load_queue = load_workload ~name:"load-queue" queue_spec

(* The same pipeline used differently: more messages per operation,
   retransmission timers and fault injection, and a long simulated
   tail; a gain on the clean path that costs the lossy one shows here. *)
let load_register_lossy = load_workload ~name:"load-register-lossy" lossy_register_spec

(* ------------------------------------------------------------------ *)
(* check-monitor: [Monitor.Make(T).check]                             *)

let check_max_nodes = 1_000_000
let guard_ops = 10_000

type history = {
  label : string;
  n : int;
  check : unit -> (verdict, string) result;
  traced_check : unit -> (verdict, string) result;
  add_latencies : Metrics.Hist.t -> unit;
  guard : unit -> string option;
      (** [None] when a corrupted history of the shape is rejected *)
}

(* One empty observation anywhere in a queue or priority-queue history
   (a take or peek before the first insertion) switches the kernel to a
   path that allocates 16% more for the whole history, and whether the
   generator's first operations produce one depends on the seed.  So
   the history seed is the first one from [seed] on whose history
   starts with an empty observation, which holds every run on that
   more general path.  The generator draws operations in order, so a
   64-operation probe shows the start of the full history; a shape
   with no empty observations (the register) keeps [seed]. *)
let history tr ~scale ~seed (key, n) =
  let pt = Option.get (Sweep.Packed_type.find key) in
  let (module T : Spec.Data_type.S) = Sweep.Packed_type.modl pt in
  let module C = Certify (T) in
  let n = scaled scale n in
  let vw = Option.get C.M.viewer in
  let empty (o : C.M.op) =
    match vw.V.obs o.inv o.resp with
    | V.Take None | V.Peek None -> true
    | _ -> false
  in
  let empty_start s = List.exists empty (C.M.generate ~seed:s ~n:64 ()) in
  let rec pick s =
    if s - seed >= 64 then seed else if empty_start s then s else pick (s + 1)
  in
  let seed, ops =
    Tracer.coarse tr Tracer.Workload ("generate " ^ key) (fun () ->
        let seed = pick seed in
        (seed, C.M.generate ~seed ~n ()))
  in
  Tracer.add tr "workload.items" (float n);
  Tracer.add tr "workload.kept" (float n);
  let budget f =
    match f () with
    | v -> Ok v
    | exception Lin.Checker.Node_budget_exceeded { nodes; _ } ->
        Error (Printf.sprintf "%s: node budget exhausted after %d nodes" key nodes)
  in
  {
    label = key;
    n;
    check =
      (fun () ->
        budget (fun () ->
            let r = C.M.check ~max_nodes:check_max_nodes ops in
            { linearizable = r.C.M.linearizable; method_ = r.C.M.method_ }));
    traced_check =
      (fun () ->
        Tracer.coarse tr Tracer.Harness ("history " ^ key) (fun () ->
            budget (fun () -> C.check tr ~max_nodes:check_max_nodes ops)));
    add_latencies =
      (fun h -> List.iter (fun op -> Metrics.Hist.add h (Metrics.latency op)) ops);
    guard =
      (fun () ->
        let bad, injected =
          C.M.corrupt (C.M.generate ~seed ~n:(scaled scale guard_ops) ())
        in
        if not injected then Some (key ^ ": no response pair to corrupt")
        else
          match C.M.check ~max_nodes:check_max_nodes bad with
          | r when r.C.M.linearizable ->
              Some (key ^ ": corrupted history accepted")
          | _ -> None
          | exception Lin.Checker.Node_budget_exceeded _ ->
              Some (key ^ ": node budget exhausted on the corrupted history"));
  }

let check_outcome histories verdicts =
  let latency = Metrics.Hist.create () in
  List.iter (fun h -> h.add_latencies latency) histories;
  let rows =
    List.map2
      (fun h v ->
        Printf.sprintf "%s n=%d %s" h.label h.n
          (match v with Ok v -> verdict_string v | Error e -> "error: " ^ e))
      histories verdicts
  in
  let certified =
    List.fold_left2
      (fun acc h v ->
        match v with Ok { linearizable = true; _ } -> acc + h.n | _ -> acc)
      0 histories verdicts
  in
  let attempted = List.fold_left (fun acc h -> acc + h.n) 0 histories in
  let digest = String.concat "\n" rows in
  {
    attempted;
    failed = attempted - certified;
    ops = certified;
    latency;
    digest;
    fingerprint = hex digest;
    problems =
      (if certified = attempted then []
       else [ "a history linearizable by construction was rejected: " ^ digest ]);
  }

(* [repro check]: the monitor kernels do all the work, with no
   simulator in the loop. *)
let check_monitor =
  {
    name = "check-monitor";
    units = "operations";
    setup =
      (fun tr ~scale ~seed ->
        (* Stack and set are left out: their known cliffs (README) would
           make the run's time depend on the seed. *)
        let histories =
          List.map
            (history tr ~scale ~seed)
            [ ("queue", 250_000); ("register", 60_000); ("priority-queue", 60_000) ]
        in
        let finish verdicts () =
          let o = check_outcome histories verdicts in
          let guard_problems = List.filter_map (fun h -> h.guard ()) histories in
          { o with problems = o.problems @ guard_problems }
        in
        {
          pipeline =
            (fun () -> finish (List.map (fun h -> h.check ()) histories));
          traced =
            (fun () ->
              let verdicts = List.map (fun h -> h.traced_check ()) histories in
              fun () -> check_outcome histories verdicts);
        });
  }

(* ------------------------------------------------------------------ *)
(* sweep-grid: [Sweep.run_durable ~jobs:1]                             *)

(* The journal is fsynced once, when the campaign closes it, as
   [repro sweep --journal-sync N] does for N at least the cell count.
   On the reference host's shared virtual disk (README) each fsync's
   write-back takes CPU from the cells: with one fsync per 256 cells (45 per repetition) the timed
   call ranged over 0.83-1.25 s in nine repetitions, against
   0.80-0.95 s with the single fsync at close. *)
let sweep_sync_every (grid : Sweep.grid) = List.length (Sweep.cells grid)

(* [repro sweep]'s own reference grid (ten types x three algorithms x
   two model points x two channel legs, two operations per process)
   over 96 seeds.  More operations per process bring in Wing-Gong
   searches whose cost depends on the seed: at 4 and above a few seeds
   in a thousand exhaust the node budget (README, known cliffs), and
   even at 3 the allocation per operation moves between seed windows
   three times as much as at 2 (0.8% against 0.25%). *)
let sweep_grid ~scale ~seed =
  {
    Sweep.default_grid with
    seeds = List.init (scaled scale 96) (fun i -> seed + i);
    max_check_nodes = Some 200_000;
  }

let sweep_dir () =
  Filename.concat scratch_dir (Printf.sprintf "sweep-%d" (Unix.getpid ()))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

type cell_row = { key : string; ok : bool; operations : int; messages : int; events : int }

let cell_digest rows =
  hex
    (String.concat "\n"
       (List.map
          (fun r ->
            Printf.sprintf "%s ok=%b ops=%d messages=%d events=%d" r.key r.ok
              r.operations r.messages r.events)
          rows))

let sweep_outcome (t : Sweep.t) =
  let rows = ref [] and problems = ref [] and certified_ops = ref 0 in
  let failed = ref 0 in
  Array.iteri
    (fun i c ->
      let key = Sweep.cell_key t.grid c in
      match t.results.(i) with
      | Pool.Done (v : Sweep.verdict) ->
          rows :=
            { key; ok = v.ok; operations = v.operations; messages = v.messages; events = v.events }
            :: !rows;
          if v.certified then certified_ops := !certified_ops + v.operations
          else begin
            incr failed;
            problems := ("cell not certified: " ^ key) :: !problems
          end
      | Pool.Failed msg ->
          incr failed;
          rows := { key; ok = false; operations = 0; messages = 0; events = 0 } :: !rows;
          problems := ("cell failed: " ^ msg) :: !problems
      | Pool.Skipped ->
          incr failed;
          problems := ("cell skipped: " ^ key) :: !problems)
    t.cells;
  {
    attempted = Array.length t.cells;
    failed = !failed;
    ops = !certified_ops;
    latency = t.hist;
    digest = cell_digest (List.rev !rows);
    fingerprint = hex (Sweep.fingerprint t);
    problems = List.rev !problems;
  }

(* One cell taken apart: lowered through the library's own projection
   ([Scenario.of_sweep_cell], the lowering [Sweep.eval] performs, held
   equal to it by the test suite), simulated with checking off, then
   certified through the split monitor calls.  [Sweep.eval] does its
   certification internally, so this is the only way to see the
   monitor and Wing-Gong share of a cell.  In this workload the engine
   span includes the protocol handlers. *)
let traced_cell tr (grid : Sweep.grid) (cell : Sweep.cell) =
  let key = Sweep.cell_key grid cell in
  Tracer.coarse tr Tracer.Sweep_cell key (fun () ->
      let (module T : Spec.Data_type.S) = Sweep.Packed_type.modl cell.dt in
      let module E = Scenario.Exec.Run (T) in
      let module C = Certify (T) in
      match E.config_of (Scenario.of_sweep_cell grid cell) with
      | Error e -> Error (key ^ ": " ^ e)
      | Ok cfg -> (
          match
            Tracer.span tr Tracer.Engine (fun () ->
                E.R.run { cfg with E.R.Config.check = false })
          with
          | exception Invalid_argument m -> Error (key ^ ": " ^ m)
          | r -> (
              match C.check tr ?max_nodes:grid.max_check_nodes r.operations with
              | exception Lin.Checker.Node_budget_exceeded _ ->
                  Error (key ^ ": node budget exhausted")
              | v ->
                  Tracer.add tr "engine.events" (float r.events);
                  Tracer.add tr "messages" (float r.messages);
                  Tracer.add tr "reliable.retransmits"
                    (match r.channel with
                    | Some ch -> float ch.stats.Core.Reliable.retransmits
                    | None -> 0.);
                  let ok =
                    r.pending = 0 && (not r.truncated) && r.delays_admissible
                    && r.skew_admissible && v.linearizable
                  in
                  Ok
                    ( {
                        key;
                        ok;
                        operations = List.length r.operations;
                        messages = r.messages;
                        events = r.events;
                      },
                      r.hist,
                      r.by_op,
                      r.by_kind ))))

let sweep_traced tr grid =
  let cells = Sweep.cells grid in
  let results = List.map (traced_cell tr grid) cells in
  (* Per-cell wall times by algorithm and by channel leg. *)
  List.iter2
    (fun (c : Sweep.cell) (s : Tracer.span) ->
      let d = Tracer.duration_s s in
      let algo =
        match c.algo with
        | Sweep.Wtlw _ -> "wtlw"
        | Sweep.Centralized -> "centralized"
        | Sweep.Tob -> "tob"
      in
      Tracer.add tr ("sweep.cell_s." ^ algo) d;
      Tracer.add tr ("sweep.cell_s." ^ Sweep.leg_label c.leg) d)
    cells
    (Tracer.spans_of tr Tracer.Sweep_cell);
  (* Replay the cell records through the journal, as [run_durable]
     appends them: a checksummed append per cell, one fsync at
     close. *)
  let dir = sweep_dir () in
  let path = Filename.concat dir "journal" in
  let fp = "repro-benchmark-traced-cells;schema=1" in
  let sync_every = sweep_sync_every grid in
  let w =
    Tracer.span tr Tracer.Journal_append (fun () ->
        remove_tree dir;
        Sweep.Journal.mkdir_p dir;
        Sweep.Journal.writer ~sync_every ~path ~fp ())
  in
  List.iter2
    (fun c r ->
      Tracer.span tr Tracer.Journal_append (fun () ->
          Sweep.Journal.append w ~key:(Sweep.cell_key grid c)
            ~input_fp:(Sweep.input_fingerprint grid c)
            r))
    cells results;
  Tracer.span tr Tracer.Journal_append (fun () -> Sweep.Journal.close w);
  let records, diagnostics =
    Tracer.span tr Tracer.Journal_load (fun () ->
        (Sweep.Journal.load ~path ~fp
          : ( cell_row
              * Metrics.Hist.t
              * (string * Metrics.summary) list
              * (Spec.Op_kind.t * Metrics.summary) list,
              string )
            result
            Sweep.Journal.record
            list
            * _))
  in
  let n = List.length cells in
  Tracer.add tr "journal.bytes" (float (file_size path));
  Tracer.add tr "journal.fsyncs" (float ((n / sync_every) + 1));
  Tracer.span tr Tracer.Journal_load (fun () -> remove_tree dir);
  (* the campaign's histogram merge, as [run_durable] does it *)
  let latency =
    Tracer.span tr Tracer.Sweep_cell (fun () ->
        let h = Metrics.Hist.create () in
        List.iter
          (function Ok (_, hist, _, _) -> Metrics.Hist.merge h hist | Error _ -> ())
          results;
        h)
  in
  fun () ->
    let rows = ref [] and problems = ref [] and certified_ops = ref 0 in
    List.iter2
      (fun c r ->
        match r with
        | Ok (row, _, _, _) ->
            rows := row :: !rows;
            if row.ok then certified_ops := !certified_ops + row.operations
            else problems := ("traced cell not certified: " ^ row.key) :: !problems
        | Error e ->
            rows :=
              { key = Sweep.cell_key grid c; ok = false; operations = 0; messages = 0; events = 0 }
              :: !rows;
            problems := ("traced cell failed: " ^ e) :: !problems)
      cells results;
    let failed = List.length !problems in
    if List.length records <> n || diagnostics <> [] then
      problems := "journal replay lost records" :: !problems;
    {
      attempted = n;
      failed;
      ops = !certified_ops;
      latency;
      digest = cell_digest (List.rev !rows);
      fingerprint = "";
      problems = List.rev !problems;
    }

(* [repro sweep]: thousands of small closed-loop runs over every type
   and algorithm, where Wing-Gong certification takes a large share. *)
let sweep_grid_workload =
  {
    name = "sweep-grid";
    units = "cells";
    setup =
      (fun tr ~scale ~seed ->
        let grid = sweep_grid ~scale ~seed in
        let sync_every = sweep_sync_every grid in
        let dir = sweep_dir () in
        remove_tree dir;
        {
          pipeline =
            (fun () ->
              let t = Sweep.run_durable ~jobs:1 ~sync_every ~dir grid in
              fun () ->
                remove_tree dir;
                sweep_outcome t);
          traced = (fun () -> sweep_traced tr grid);
        });
  }

(* ------------------------------------------------------------------ *)
(* scenario-batch: codec round trip, [Scenario.run], [Exec.passes]     *)

let scenario_outcome scenarios (runs : (Scenario.t * Scenario.Exec.outcome, string) result array) =
  let latency = Metrics.Hist.create () in
  let rows = Buffer.create 4096 in
  let problems = ref [] and passed = ref 0 and certified_ops = ref 0 in
  Array.iteri
    (fun i r ->
      let s : Scenario.t = scenarios.(i) in
      match r with
      | Error e ->
          Printf.bprintf rows "%s codec-error\n" s.name;
          problems := Printf.sprintf "%s: codec: %s" s.name e :: !problems
      | Ok (s', (o : Scenario.Exec.outcome)) ->
          Printf.bprintf rows "%s passed=%b ops=%d messages=%d events=%d\n"
            o.scenario o.passed o.operations o.messages o.events;
          if not (Scenario.equal s s') then
            problems := (s.name ^ ": codec round trip changed the scenario") :: !problems;
          List.iter (fun (_, worst) -> Metrics.Hist.add latency worst) o.by_kind;
          if Scenario.Exec.passes o then begin
            incr passed;
            certified_ops := !certified_ops + o.operations
          end
          else problems := (s.name ^ ": scenario failed") :: !problems)
    runs;
  let digest = Buffer.contents rows in
  {
    attempted = Array.length scenarios;
    failed = Array.length scenarios - !passed;
    ops = !certified_ops;
    latency;
    digest = hex digest;
    fingerprint = hex digest;
    problems = List.rev !problems;
  }

(* The shipped counterexamples must still be caught. *)
let builtin_guard () =
  List.filter_map
    (fun (s : Scenario.t) ->
      let o = Scenario.run s in
      if o.certified || o.diagnostic <> None then
        Some (s.name ^ ": builtin violating scenario did not violate")
      else None)
    Scenario.Builtin.all

let codec_round_trip s = Scenario.of_string (Scenario.to_string s)

(* Generated scenarios from [seed] on, leaving out generated open-loop
   workloads on types without a monitor: Wing-Gong on their 16-47
   concurrent operations is heavy-tailed (one log scenario took 495 ms,
   a quarter of a 12 000-scenario batch), so a batch holding one would
   time the seed, not the pipeline.  The README lists it as a cliff.
   Also returns how many scenarios were drawn. *)
let scenario_inputs ~seed ~n =
  let heavy (s : Scenario.t) =
    match s.workload with
    | Scenario.Generated _ ->
        Monitor.monitored_kind
          (Sweep.Packed_type.modl (Option.get (Sweep.Packed_type.find s.dt)))
        = None
    | Scenario.Explicit _ | Scenario.Closed_loop _ -> false
  in
  let rec fill acc k i =
    if k = n then (Array.of_list (List.rev acc), i)
    else
      let s = Scenario.gen ~seed:(seed + i) in
      if heavy s then fill acc k (i + 1) else fill (s :: acc) (k + 1) (i + 1)
  in
  fill [] 0 0

(* [repro scenario run]: thousands of tiny runs where fixed per-run
   cost (codec, lowering, cluster construction) dominates -- the
   opposite size profile to the load workloads. *)
let scenario_batch =
  {
    name = "scenario-batch";
    units = "scenarios";
    setup =
      (fun tr ~scale ~seed ->
        let n = scaled scale 20_000 in
        let scenarios, drawn =
          Tracer.coarse tr Tracer.Workload "generate scenarios" (fun () ->
              scenario_inputs ~seed ~n)
        in
        Tracer.add tr "workload.items" (float drawn);
        Tracer.add tr "workload.kept" (float n);
        {
          pipeline =
            (fun () ->
              let runs =
                Array.map
                  (fun s ->
                    Result.map (fun s' -> (s', Scenario.run s')) (codec_round_trip s))
                  scenarios
              in
              fun () ->
                let o = scenario_outcome scenarios runs in
                { o with problems = o.problems @ builtin_guard () });
          traced =
            (fun () ->
              let runs =
                Array.map
                  (fun (s : Scenario.t) ->
                    Tracer.coarse tr Tracer.Harness s.name (fun () ->
                        match
                          Tracer.span tr Tracer.Codec (fun () -> codec_round_trip s)
                        with
                        | Error e -> Error e
                        | Ok s' ->
                            let o =
                              Tracer.coarse tr Tracer.Exec s'.name (fun () ->
                                  Scenario.run s')
                            in
                            Tracer.add tr "engine.events" (float o.events);
                            Tracer.add tr "messages" (float o.messages);
                            Tracer.add tr "fault.injected" (float o.faults);
                            Ok (s', o)))
                  scenarios
              in
              fun () -> scenario_outcome scenarios runs);
        });
  }

(* ------------------------------------------------------------------ *)

let all =
  [ load_queue; load_register_lossy; check_monitor; sweep_grid_workload; scenario_batch ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
