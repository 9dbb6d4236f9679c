(** Sharded composite runtime: one keyspace served by N independent
    Algorithm 1 clusters, certified per object key.

    Linearizability is local (paper §2.3): a run over independent
    objects is linearizable iff its restriction to each object is.
    That cuts both ways here.  {e Routing}: a single seed-deterministic
    workload stream ({!Core.Workload.Gen}) over a Zipf-skewed keyspace
    is partitioned by [key mod shards]; each shard is a full
    [Runtime.Make (Spec.Keyed.Make (T))] cluster driving only its own
    keys, so shards share no state and run in parallel as items of the
    {!Sweep.Runner} campaign runner.  {e Certification}: within a shard, each
    key's completed operations are projected out and certified
    independently with the per-type {!Monitor} — turning one
    million-operation history the Wing-Gong checker could never touch
    into thousands of small per-key checks, each [O(n log n)]
    (decrease-and-conquer, as in Lee-Mathur).

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
    max_events : int option;
    max_check_nodes : int option;
    model : Sim.Model.t;  (** per-shard cluster model *)
    algorithm : Core.Runtime.algorithm;
    seed : int;
  }

  let make ?(keys = 64) ?(zipf = 0.0) ?(faults = Sim.Fault.none) ?channel
      ?(checker = Core.Runtime.Monitor) ?max_events ?max_check_nodes
      ?(seed = 0) ~shards ~ops ~arrival ~model ~algorithm () =
    if shards < 1 then invalid_arg "Shard.Config.make: shards < 1";
    if ops < 0 then invalid_arg "Shard.Config.make: ops < 0";
    if keys < 1 then invalid_arg "Shard.Config.make: keys < 1";
    {
      shards;
      ops;
      keys;
      arrival;
      zipf;
      faults;
      channel;
      checker;
      max_events;
      max_check_nodes;
      model;
      algorithm;
      seed;
    }

  let reliable ?config cfg =
    {
      cfg with
      channel =
        Some
          (match config with
          | Some c -> c
          | None -> Core.Reliable.default_config cfg.model);
    }
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
  fallbacks : int;  (** per-key checks that fell back to Wing-Gong *)
  checked_by : string;
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

(* Journal header for [repro load --resume].  Schema 2 records are
   [(shard_report, string) result]s; schema 1 held bare reports.  The
   code digest lives in the per-shard input fingerprint instead, so a
   rebuild invalidates shards individually. *)
let journal_header = Sweep.Journal.header "repro-load-shards;schema=2"

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

let total_faults (counts : Sim.Trace.fault_counts list) =
  List.fold_left
    (fun (acc : Sim.Trace.fault_counts) (c : Sim.Trace.fault_counts) ->
      {
        Sim.Trace.dropped = acc.dropped + c.dropped;
        duplicated = acc.duplicated + c.duplicated;
        spiked = acc.spiked + c.spiked;
        crashed = acc.crashed + c.crashed;
        skewed = acc.skewed + c.skewed;
      })
    Sim.Trace.no_faults counts

module Make (T : Spec.Data_type.S) = struct
  module KT = Spec.Keyed.Make (T)
  module R = Core.Runtime.Make (KT)
  module Mon = Monitor.Make (T)
  module Checker = Lin.Checker.Make (T)

  (* One shard: re-derive the global stream, keep [key mod shards =
     shard], drive a full cluster over the keyed family with the
     backpressure-clamped [Paced] workload, then certify each key's
     projection independently. *)
  let run_shard (cfg : Config.t) ~shard =
    let m = cfg.model in
    let skey = shard_key cfg ~data_type:T.name ~shard in
    let sseed = Sweep.Journal.fnv1a skey in
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
    let next ~proc =
      match Workload.Route.next route ~proc with
      | None -> None
      | Some (at, item) -> Some (at, { KT.key = item.key; inv = item.inv })
    in
    (* The engine's default step limit is sized for single small runs;
       a million-op shard needs headroom proportional to its share of
       the stream (broadcasts, timers, acks). *)
    let max_events =
      match cfg.max_events with
      | Some e -> e
      | None -> (200 * (cfg.ops / cfg.shards)) + 200_000
    in
    let rcfg =
      R.Config.make ~check:false ~retain_events:false
        ~faults:{ cfg.faults with seed = sseed }
        ~max_events ~model:m
        ~offsets:(Array.make m.n Rat.zero)
        ~delay:(Sim.Net.random_model ~seed:sseed m)
        ~algorithm:cfg.algorithm
        ~workload:(R.Paced { next })
        ()
    in
    let rcfg =
      match cfg.channel with
      | None -> rcfg
      | Some config -> R.Config.reliable ~config rcfg
    in
    let report = R.run rcfg in
    (* Certify per key, exploiting locality: group the shard's
       completed operations by key (preserving invocation order) and
       run the per-type checker on each projection. *)
    let by_key : (int, (T.invocation, T.response) Sim.Trace.operation list ref)
        Hashtbl.t =
      Hashtbl.create 64
    in
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
        let cell =
          match Hashtbl.find_opt by_key key with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add by_key key r;
              r
        in
        cell := projected :: !cell)
      report.operations;
    let keys =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key [])
    in
    let uncertified = ref [] and fallbacks = ref 0 in
    List.iter
      (fun key ->
        let ops = List.rev !(Hashtbl.find by_key key) in
        let linearizable =
          match cfg.checker with
          | Core.Runtime.Wing_gong ->
              Option.is_some
                (Checker.check ?max_nodes:cfg.max_check_nodes ops)
          | Core.Runtime.Monitor ->
              let r = Mon.check ?max_nodes:cfg.max_check_nodes ops in
              if Option.is_some r.Mon.fallback then incr fallbacks;
              r.Mon.linearizable
        in
        if not linearizable then uncertified := key :: !uncertified)
      keys;
    let uncertified_keys = List.rev !uncertified in
    let linearizable = uncertified_keys = [] in
    let healthy =
      report.pending = 0
      && (not report.truncated)
      && report.delays_admissible && report.skew_admissible
    in
    let checked_by =
      match cfg.checker with
      | Core.Runtime.Wing_gong ->
          Printf.sprintf "per-key wing-gong (%d keys)" (List.length keys)
      | Core.Runtime.Monitor ->
          Printf.sprintf "per-key monitor (%d keys, %d fallbacks)"
            (List.length keys) !fallbacks
    in
    {
      shard;
      keys = List.length keys;
      operations = List.length report.operations;
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
      certified = healthy && linearizable;
      hist = report.hist;
      by_op = report.by_op;
    }

  let run ?(jobs = 1) ?should_stop ?journal_dir ?(sync_every = 1) ?code_fp
      (cfg : Config.t) =
    let key shard = shard_key cfg ~data_type:T.name ~shard in
    let input_fp =
      Sweep.Runner.input_fingerprint ?code_fp ~max_events:cfg.max_events
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
        (fun shard -> (Ok (run_shard cfg ~shard), 1))
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
        total_faults (List.map (fun (r : shard_report) -> r.faults) done_);
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
               r.shard
               (if r.certified then "certified"
                else if r.linearizable then "flagged"
                else "VIOLATION")
               r.keys r.operations r.messages r.events r.pending
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
  Array.iter
    (fun outcome ->
      match outcome with
      | Pool.Skipped -> Format.fprintf ppf "  shard ?: SKIPPED@,"
      | Pool.Failed msg -> Format.fprintf ppf "  shard ?: FAILED %s@," msg
      | Pool.Done r ->
          Format.fprintf ppf
            "  shard %d: %-9s %7d ops %3d keys  %s  (%d msgs, %d events%s)@,"
            r.shard
            (if r.certified then "certified"
             else if r.linearizable then "FLAGGED"
             else "VIOLATION")
            r.operations r.keys (hist_str r.hist) r.messages r.events
            (if r.pending > 0 then Printf.sprintf ", %d pending" r.pending
             else ""))
    t.reports;
  if Sim.Trace.total_faults t.faults > 0 then
    Format.fprintf ppf
      "  faults: %d dropped, %d duplicated, %d spiked, %d crashed, %d skewed@,"
      t.faults.dropped t.faults.duplicated t.faults.spiked t.faults.crashed
      t.faults.skewed;
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

let pp_json ppf t =
  Format.fprintf ppf
    "{\"type\":%s,\"algorithm\":%s,\"shards\":%d,\"ops\":%d,\"keys\":%d,\"arrival\":%s,\"zipf\":%g,\"seed\":%d,\"shard_reports\":["
    (Core.Json.quote t.data_type) (Core.Json.quote t.algorithm) t.shards t.ops
    t.keyspace (Core.Json.quote t.arrival) t.zipf t.seed;
  Array.iteri
    (fun i outcome ->
      if i > 0 then Format.fprintf ppf ",";
      match outcome with
      | Pool.Skipped -> Format.fprintf ppf "{\"status\":\"skipped\"}"
      | Pool.Failed msg ->
          Format.fprintf ppf "{\"status\":\"failed\",\"error\":%s}"
            (Core.Json.quote msg)
      | Pool.Done r ->
          Format.fprintf ppf
            "{\"shard\":%d,\"certified\":%b,\"linearizable\":%b,\"keys\":%d,\"operations\":%d,\"messages\":%d,\"events\":%d,\"pending\":%d,\"truncated\":%b,\"fallbacks\":%d,\"checked_by\":%s"
            r.shard r.certified r.linearizable r.keys r.operations r.messages
            r.events r.pending r.truncated r.fallbacks
            (Core.Json.quote r.checked_by);
          (match Metrics.Hist.quantiles r.hist with
          | None -> ()
          | Some q -> Format.fprintf ppf ",\"quantiles\":%a" Metrics.Hist.pp_json_quantiles q);
          (if r.uncertified_keys <> [] then
             Format.fprintf ppf ",\"uncertified_keys\":[%s]"
               (String.concat "," (List.map string_of_int r.uncertified_keys)));
          Format.fprintf ppf "}")
    t.reports;
  Format.fprintf ppf
    "],\"aggregate\":{\"certified\":%b,\"operations\":%d,\"messages\":%d,\"events\":%d,\"pending\":%d"
    t.certified t.operations t.messages t.events t.pending;
  (match Metrics.Hist.quantiles t.hist with
  | None -> ()
  | Some q -> Format.fprintf ppf ",\"quantiles\":%a" Metrics.Hist.pp_json_quantiles q);
  Format.fprintf ppf
    "},\"replayed\":%d,\"interrupted\":%b,\"journal_diagnostics\":[%s],\"jobs\":%d,\"wall_s\":%.3f}"
    t.replayed t.interrupted
    (String.concat "," (List.map Core.Json.quote t.journal_diagnostics))
    t.jobs t.wall_s
