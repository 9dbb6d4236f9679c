(** Sharded composite runtime: one keyspace served by N independent
    Algorithm 1 clusters, certified per object key.

    Linearizability is local (paper §2.3): a run over independent
    objects is linearizable iff its restriction to each object is.
    That cuts both ways here.  {e Routing}: a single seed-deterministic
    workload stream ({!Core.Workload.Gen}) over a Zipf-skewed keyspace
    is partitioned by [key mod shards]; each shard is a full
    [Runtime.Make (Spec.Keyed.Make (T))] cluster driving only its own
    keys, so shards share no state and run in parallel as items of the
    {!Sweep.Runner} campaign runner.  {e Certification}: within a
    shard, each key's completed operations are certified independently
    with the per-type {!Monitor} — turning one million-operation
    history the Wing-Gong checker could never touch into thousands of
    small per-key checks, each [O(n log n)] (decrease-and-conquer, as
    in Lee-Mathur).  No step needs the whole shard's history twice:
    the run hands each operation over as it completes and keeps none,
    the shard projects it onto [T] into its key's array, the only copy,
    and releases each key's array once its verdict is in.  A key the
    kernel leaves undecided is checked against the algorithm's own
    order over that key alone ({!Core.Runtime.Make.order_of}), which
    by locality is the shard's order restricted to the key.

    Determinism: every shard re-derives the same global stream from the
    config seed and filters its own keys, per-shard network/fault seeds
    are FNV-1a hashes of canonical shard coordinates, and aggregation
    uses exact accumulators and bucket-wise histogram merging — so
    {!fingerprint} is byte-identical for every [--jobs] count. *)

module Metrics = Core.Metrics
module Workload = Core.Workload
module Pool = Sweep.Pool

module Config = struct
  type t = {
    shards : int;
    ops : int;  (** total operations across all shards *)
    keys : int;
    arrival : Workload.arrival;
    zipf : float;
    faults : Sim.Fault.plan;
    channel : Core.Reliable.config option;
    checker : Core.Runtime.checker;
    max_check_nodes : int option;
    model : Sim.Model.t;  (** per-shard cluster model *)
    algorithm : Core.Runtime.algorithm;
    seed : int;
  }

  let make ?(keys = 64) ?(zipf = 0.0) ?(faults = Sim.Fault.none)
      ?(checker = Core.Runtime.Monitor) ?max_check_nodes ?(seed = 0) ~shards
      ~ops ~arrival ~model ~algorithm () =
    if shards < 1 then invalid_arg "Shard.Config.make: shards < 1";
    if ops < 0 then invalid_arg "Shard.Config.make: ops < 0";
    if keys < 1 then invalid_arg "Shard.Config.make: keys < 1";
    Workload.Gen.validate ~arrival ~zipf ~keys ~ops ();
    {
      shards;
      ops;
      keys;
      arrival;
      zipf;
      faults;
      channel = None;
      checker;
      max_check_nodes;
      model;
      algorithm;
      seed;
    }

  let reliable cfg =
    { cfg with channel = Some (Core.Reliable.default_config cfg.model) }
end

type shard_report = {
  shard : int;
  keys : int;  (** distinct keys that completed an operation here *)
  operations : int;
  messages : int;
  events : int;
  pending : int;
  truncated : bool;
  delays_admissible : bool;
  skew_admissible : bool;
  faults : Sim.Trace.fault_counts;
  linearizable : bool;  (** every key's projection certified *)
  uncertified_keys : int list;
  fallbacks : int;  (** keys Wing-Gong decided after the monitor *)
  checked_by : string;
  order_failure : (int * string) option;
      (** the first key whose protocol order was refused,
          with the failure naming its operations *)
  budget_exhausted : (int * int) list;
      (** keys whose Wing-Gong search exceeded the node budget, with
          the nodes it visited; each is uncertified, undecided *)
  certified : bool;
      (** run healthy (complete, admissible, untruncated) and
          [linearizable] *)
  hist : Metrics.Hist.t;
  by_op : (string * Metrics.summary) list;
}

type t = {
  data_type : string;
  algorithm : string;
  shards : int;
  ops : int;
  keyspace : int;
  arrival : string;
  zipf : float;
  seed : int;
  reports : shard_report Pool.outcome array;  (** positional, by shard *)
  hist : Metrics.Hist.t;  (** merged across shards *)
  operations : int;
  messages : int;
  events : int;
  pending : int;
  faults : Sim.Trace.fault_counts;
  certified : bool;
  replayed : int;  (** shards answered from the resume journal *)
  interrupted : bool;  (** a stop request drained the pool early *)
  journal_diagnostics : string list;
  jobs : int;
  wall_s : float;
}

(* Journal header for [repro load --resume].  Schema 4 records are
   [(shard_report, string) result]s whose reports carry
   [budget_exhausted]; schema 3 reports did not, schema 2 reports
   lacked [order_failure] too, and schema 1 held bare reports.  The
   code digest lives in the per-shard input fingerprint instead, so a
   rebuild invalidates shards individually. *)
let journal_header = Sweep.Journal.header "repro-load-shards;schema=4"

(* Canonical shard coordinates: the input to the per-shard seed hash
   and the shard id in diagnostics.  Everything that can change a
   shard's run is named here. *)
let shard_key (cfg : Config.t) ~data_type ~shard =
  let m = cfg.model in
  Printf.sprintf
    "shard=%d/%d;type=%s;algo=%s;n=%d;d=%s;u=%s;eps=%s;ops=%d;keys=%d;arrival=%s;zipf=%g;faults=%s;leg=%s;seed=%d"
    shard cfg.shards data_type
    (Core.Runtime.algorithm_name cfg.algorithm)
    m.n (Rat.to_string m.d) (Rat.to_string m.u) (Rat.to_string m.eps) cfg.ops
    cfg.keys
    (Workload.arrival_label cfg.arrival)
    cfg.zipf
    (Sim.Fault.describe cfg.faults)
    (match cfg.channel with None -> "raw" | Some _ -> "reliable")
    cfg.seed

module Make (T : Spec.Data_type.S) = struct
  module KT = Spec.Keyed.Make (T)

  (* applied to the functor path, so that [R.Config.t] is the type
     [runtime_config]'s signature names *)
  module R = Core.Runtime.Make (Spec.Keyed.Make (T))
  module C = Core.Runtime.Make (T)

  (* One shard's run: re-derive the global stream, keep [key mod
     shards = shard], and drive a full cluster over the keyed family
     with the backpressure-clamped [Paced] workload. *)
  let runtime_config (cfg : Config.t) ~shard =
    let m = cfg.model in
    let skey = shard_key cfg ~data_type:T.name ~shard in
    let sseed = Core.Hash.fnv1a skey in
    let gen =
      Workload.Gen.create ~arrival:cfg.arrival ~zipf:cfg.zipf ~keys:cfg.keys
        ~ops:cfg.ops ~seed:cfg.seed
        ~invocation:(fun rng ~key:_ ~seq -> T.gen_tagged rng ~tag:seq)
        ()
    in
    let route =
      Workload.Route.create ~procs:m.n
        ~keep:(fun k -> k mod cfg.shards = shard)
        gen
    in
    (* The engine's default step limit is sized for single small runs;
       a million-op shard needs headroom proportional to its share of
       the stream (broadcasts, timers, acks). *)
    let max_events = (200 * (cfg.ops / cfg.shards)) + 200_000 in
    let rcfg =
      R.Config.make ~check:false
        ~faults:{ cfg.faults with seed = sseed }
        ~max_events ~model:m
        ~offsets:(Array.make m.n Rat.zero)
        ~delay:(Sim.Net.random_model ~seed:sseed m)
        ~algorithm:cfg.algorithm
        ~workload:
          (R.Paced
             {
               route;
               lift = (fun ~key inv -> { KT.key; inv });
               tick = Rat.make 1 Workload.Gen.quantum;
             })
        ()
    in
    match cfg.channel with
    | None -> rcfg
    | Some config -> R.Config.reliable ~config rcfg

  (* Run one shard and visit its keys one at a time, exploiting
     locality.  The run hands over each operation as it completes,
     keeping none; it is projected onto [T] and inserted into its
     key's array, which holds the only copy, in invocation order (ties
     in response order, as [Sim.Trace.operations] lists them) by
     [Sim.Trace.insert_in_order].  A key's turn releases its array
     from the shard and hands [f] the history with the order the
     algorithm linearized that key in.  The operations count the run's time
     quanta [quantum]: checkers only compare times, so only a rendered
     failure divides them. *)
  let each_key (cfg : Config.t) ~shard f =
    let by_key = Array.make cfg.keys [||] and filled = Array.make cfg.keys 0 in
    let deal (op : (KT.invocation, KT.response) Sim.Trace.operation) =
      let key = op.inv.key in
      let projected : C.Mon.op =
        {
          proc = op.proc;
          inv = op.inv.inv;
          resp = op.resp;
          inv_time = op.inv_time;
          resp_time = op.resp_time;
        }
      in
      let n = filled.(key) in
      by_key.(key) <- Sim.Trace.insert_in_order by_key.(key) n projected;
      filled.(key) <- n + 1
    in
    let report, order, quantum =
      R.run_in_quanta
        ~key_of:(fun (inv : KT.invocation) -> inv.key)
        ~deal (runtime_config cfg ~shard)
    in
    for key = 0 to cfg.keys - 1 do
      if filled.(key) > 0 then begin
        let ops = Array.sub by_key.(key) 0 filled.(key) in
        by_key.(key) <- [||];
        f ~quantum key ops (C.order_of order ~key)
      end
    done;
    (report, Array.fold_left ( + ) 0 filled)

  let key_histories (cfg : Config.t) ~shard =
    let out = Array.make cfg.keys [||] in
    ignore
      (each_key cfg ~shard (fun ~quantum key ops _ ->
           out.(key) <-
             Array.map (Core.Runtime.unscale_operation quantum) ops));
    out

  let key_orders (cfg : Config.t) ~shard =
    let out = Array.make cfg.keys [||] in
    ignore
      (each_key cfg ~shard (fun ~quantum:_ key ops order ->
           out.(key) <- order ops));
    out

  (* Certify each key's projection independently.  A key whose
     Wing-Gong search exceeds the node budget is left uncertified and
     named; the other keys' verdicts stand. *)
  let run_shard (cfg : Config.t) ~shard =
    let keys = ref 0 and uncertified = ref [] in
    let protocol = ref 0 and fallbacks = ref 0 and order_failure = ref None in
    let budget_exhausted = ref [] in
    let report, operations =
      each_key cfg ~shard (fun ~quantum key ops order ->
          incr keys;
          match
            C.certify ?max_nodes:cfg.max_check_nodes
              ~order ~checker:cfg.checker ops
          with
          | r ->
              (match r.method_ with
              | Monitor.Protocol_order -> incr protocol
              | Monitor.Wing_gong when Option.is_some r.fallback ->
                  incr fallbacks
              | _ -> ());
              (match r.order_failure with
              | Some f when Option.is_none !order_failure ->
                  order_failure :=
                    Some
                      ( key,
                        Format.asprintf "%a"
                          (C.Mon.pp_order_failure
                             (Array.map
                                (Core.Runtime.unscale_operation quantum)
                                ops))
                          f )
              | _ -> ());
              if not r.linearizable then uncertified := key :: !uncertified
          | exception Lin.Checker.Node_budget_exceeded { nodes; _ } ->
              if cfg.checker = Core.Runtime.Monitor then incr fallbacks;
              budget_exhausted := (key, nodes) :: !budget_exhausted;
              uncertified := key :: !uncertified)
    in
    let keys = !keys in
    let uncertified_keys = List.rev !uncertified in
    let linearizable = uncertified_keys = [] in
    let healthy = Option.is_none (R.unhealthy report) in
    let checked_by =
      if cfg.checker = Core.Runtime.Wing_gong then
        Printf.sprintf "per-key wing-gong (%d keys)" keys
      else
        Printf.sprintf
          "per-key monitor (%d keys, %d protocol-order, %d fallbacks)" keys
          !protocol !fallbacks
    in
    {
      shard;
      keys;
      operations;
      messages = report.messages;
      events = report.events;
      pending = report.pending;
      truncated = report.truncated;
      delays_admissible = report.delays_admissible;
      skew_admissible = report.skew_admissible;
      faults = report.faults;
      linearizable;
      uncertified_keys;
      fallbacks = !fallbacks;
      checked_by;
      order_failure = !order_failure;
      budget_exhausted = List.rev !budget_exhausted;
      certified = healthy && linearizable;
      hist = report.hist;
      by_op = report.by_op;
    }

  let run ?(jobs = 1) ?should_stop ?journal_dir ?(sync_every = 1) ?code_fp
      (cfg : Config.t) =
    let key shard = shard_key cfg ~data_type:T.name ~shard in
    (* A shard's step limit follows from [ops] and [shards], which its
       key names, so the fingerprint carries none: journals written
       before stay replayable. *)
    let input_fp =
      Sweep.Runner.input_fingerprint ?code_fp ~max_events:None
        ~max_check_nodes:cfg.max_check_nodes cfg.checker
    in
    (* Failed shards re-run on resume: only reports are worth replaying. *)
    let r =
      Sweep.Runner.run ~jobs ~fail_fast:false ~should_stop
        ~journal:
          (Option.map
             (Sweep.Runner.in_dir ~header:journal_header ~sync_every
                ~replay_failures:false)
             journal_dir)
        ~key
        ~input_fp:(fun shard -> input_fp (key shard))
        ~n:cfg.shards
        (fun shard ->
          match run_shard cfg ~shard with
          | report -> Ok report
          | exception Invalid_argument m ->
              Error (Scenario.Exec.abort_message (Invalid_run m))
          | exception Rat.Overflow ->
              Error (Scenario.Exec.abort_message Overflow))
    in
    let done_ : shard_report list =
      Array.to_list r.outcomes
      |> List.filter_map (function Pool.Done r -> Some r | _ -> None)
    in
    let hist = Metrics.Hist.create () in
    List.iter (fun (r : shard_report) -> Metrics.Hist.merge hist r.hist) done_;
    let sum (f : shard_report -> int) =
      List.fold_left (fun acc r -> acc + f r) 0 done_
    in
    {
      data_type = T.name;
      algorithm = Core.Runtime.algorithm_name cfg.algorithm;
      shards = cfg.shards;
      ops = cfg.ops;
      keyspace = cfg.keys;
      arrival = Workload.arrival_label cfg.arrival;
      zipf = cfg.zipf;
      seed = cfg.seed;
      reports = r.outcomes;
      hist;
      operations = sum (fun r -> r.operations);
      messages = sum (fun r -> r.messages);
      events = sum (fun r -> r.events);
      pending = sum (fun r -> r.pending);
      faults =
        Sim.Trace.sum_faults
          (List.map (fun (r : shard_report) -> r.faults) done_);
      certified =
        List.length done_ = cfg.shards
        && List.for_all (fun (r : shard_report) -> r.certified) done_;
      replayed = r.resume.replayed;
      interrupted = r.resume.interrupted;
      journal_diagnostics = r.resume.journal_diagnostics;
      jobs;
      wall_s = r.wall_s;
    }
end

let run ?jobs ?should_stop ?journal_dir ?sync_every ?code_fp cfg pt =
  let (module T : Spec.Data_type.S) = Sweep.Packed_type.modl pt in
  let module S = Make (T) in
  S.run ?jobs ?should_stop ?journal_dir ?sync_every ?code_fp cfg

(* ---------- deterministic fingerprint and reports ---------- *)

let budget_diagnostic (key, nodes) =
  Printf.sprintf "node budget exhausted on key %d after %d nodes" key nodes

(* A shard's verdict.  A shard whose only uncertified keys ran out of
   node budget is undecided, not a violation.  Nor is a failed key a
   violation when the run left operations pending: the per-key checkers
   judge completed operations only, and a pending one (its reply
   dropped, say) may have taken effect that a completed read observed;
   such a shard is flagged. *)
let verdict (r : shard_report) =
  if r.certified then "certified"
  else if r.linearizable then "flagged"
  else if
    List.for_all
      (fun k -> List.mem_assoc k r.budget_exhausted)
      r.uncertified_keys
  then "undecided"
  else if r.pending > 0 then "flagged"
  else "VIOLATION"

let hist_str h =
  match Metrics.Hist.quantiles h with
  | None -> "empty"
  | Some q -> Format.asprintf "%a" Metrics.Hist.pp_quantiles q

let fingerprint t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "type=%s algo=%s shards=%d ops=%d keys=%d arrival=%s zipf=%g seed=%d\n"
       t.data_type t.algorithm t.shards t.ops t.keyspace t.arrival t.zipf
       t.seed);
  Array.iter
    (fun outcome ->
      (match outcome with
      | Pool.Skipped -> Buffer.add_string buf "skipped"
      | Pool.Failed msg -> Buffer.add_string buf ("failed: " ^ msg)
      | Pool.Done r ->
          Buffer.add_string buf
            (Printf.sprintf
               "shard=%d %s keys=%d ops=%d messages=%d events=%d pending=%d \
                %s"
               r.shard (verdict r) r.keys r.operations r.messages r.events r.pending
               (hist_str r.hist)));
      Buffer.add_char buf '\n')
    t.reports;
  Buffer.add_string buf
    (Printf.sprintf "aggregate %s ops=%d messages=%d events=%d pending=%d %s\n"
       (if t.certified then "certified" else "flagged")
       t.operations t.messages t.events t.pending (hist_str t.hist));
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "@[<v>%s over %d shards (%s, %d keys, %d ops, zipf=%g)@,"
    t.data_type t.shards t.arrival t.keyspace t.ops t.zipf;
  Format.fprintf ppf "algorithm: %s; seed=%d@," t.algorithm t.seed;
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Pool.Skipped -> Format.fprintf ppf "  shard %d: SKIPPED@," i
      | Pool.Failed msg -> Format.fprintf ppf "  shard %d: FAILED %s@," i msg
      | Pool.Done r ->
          Format.fprintf ppf
            "  shard %d: %-9s %7d ops %3d keys  %s  (%d msgs, %d events%s)@,"
            r.shard
            (if r.certified then verdict r
             else String.uppercase_ascii (verdict r))
            r.operations r.keys (hist_str r.hist) r.messages r.events
            (if r.pending > 0 then Printf.sprintf ", %d pending" r.pending
             else "");
          Option.iter
            (fun (key, f) ->
              Format.fprintf ppf "    protocol order refused on key %d: %s@,"
                key f)
            r.order_failure;
          List.iter
            (fun budget ->
              Format.fprintf ppf "    %s@," (budget_diagnostic budget))
            r.budget_exhausted)
    t.reports;
  if Sim.Trace.total_faults t.faults > 0 then
    Format.fprintf ppf "  %a@," Sim.Trace.pp_faults t.faults;
  List.iter
    (fun d -> Format.fprintf ppf "journal diagnostic: %s@," d)
    t.journal_diagnostics;
  if t.replayed > 0 then
    Format.fprintf ppf "resume: %d of %d shards replayed from journal@,"
      t.replayed t.shards;
  if t.interrupted then Format.fprintf ppf "INTERRUPTED (resumable)@,";
  Format.fprintf ppf "aggregate: %-9s %7d ops  %s  (jobs=%d, wall=%.2fs)@]"
    (if t.certified then "certified" else "FLAGGED")
    t.operations (hist_str t.hist) t.jobs t.wall_s

let to_json t =
  let open Core.Json in
  let quantiles h =
    optional "quantiles" Metrics.Hist.json_of_quantiles
      (Metrics.Hist.quantiles h)
  in
  let unless_empty key f = function
    | [] -> []
    | l -> [ (key, List (List.map f l)) ]
  in
  let budget ((key, nodes) as b) =
    Object
      [ ("key", Int key); ("nodes", Int nodes);
        ("diagnostic", String (budget_diagnostic b)) ]
  in
  let order_failure (key, f) =
    Object [ ("key", Int key); ("failure", String f) ]
  in
  let report i = function
    | Pool.Skipped -> Object [ ("shard", Int i); ("status", String "skipped") ]
    | Pool.Failed msg ->
        Object
          [ ("shard", Int i); ("status", String "failed");
            ("error", String msg) ]
    | Pool.Done r ->
        Object
          ([ ("shard", Int r.shard); ("certified", Bool r.certified);
             ("linearizable", Bool r.linearizable); ("keys", Int r.keys);
             ("operations", Int r.operations); ("messages", Int r.messages);
             ("events", Int r.events); ("pending", Int r.pending);
             ("truncated", Bool r.truncated); ("fallbacks", Int r.fallbacks);
             ("checked_by", String r.checked_by) ]
          @ quantiles r.hist
          @ unless_empty "uncertified_keys" (fun k -> Int k) r.uncertified_keys
          @ optional "order_failure" order_failure r.order_failure
          @ unless_empty "budget_exhausted" budget r.budget_exhausted)
  in
  let aggregate =
    [ ("certified", Bool t.certified); ("operations", Int t.operations);
      ("messages", Int t.messages); ("events", Int t.events);
      ("pending", Int t.pending) ]
  in
  Object
    [ ("type", String t.data_type); ("algorithm", String t.algorithm);
      ("shards", Int t.shards); ("ops", Int t.ops); ("keys", Int t.keyspace);
      ("arrival", String t.arrival); ("zipf", Sig t.zipf); ("seed", Int t.seed);
      ("shard_reports", List (Array.to_list (Array.mapi report t.reports)));
      ("aggregate", Object (aggregate @ quantiles t.hist));
      ("replayed", Int t.replayed); ("interrupted", Bool t.interrupted);
      ( "journal_diagnostics",
        List (List.map (fun d -> String d) t.journal_diagnostics) );
      ("jobs", Int t.jobs); ("wall_s", Fixed (3, t.wall_s)) ]
