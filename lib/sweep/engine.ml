(* Multicore sweep engine: evaluate a declarative campaign grid —
   data type x algorithm x model point x fault plan x channel leg x
   seed — through the campaign runner (Runner), which shards cells
   across a fixed domain pool (Pool).

   Determinism contract: a cell's behaviour is a pure function of its
   coordinates.  The per-cell RNG seed is derived by hashing the cell's
   canonical key string (FNV-1a), never from the claiming domain or the
   wall clock, so verdicts — and, because the campaign summaries are
   folded with exact rational arithmetic over positional outcomes, the
   summaries too — are identical for every --jobs count.  Only [wall_s]
   and [jobs] vary, and both are excluded from {!fingerprint}. *)

module Metrics = Core.Metrics

include Scenario.Grid

(* Per-cell verdict: the run's health, its latency shape, and the
   worst observed latency of each class against the Table 5 formula for
   the cell's algorithm, judged against the model the run actually
   implemented (the inflated model for recovered legs). *)
type verdict = {
  key : string;
  run_seed : int;
  ok : bool;
  bound_ok : bool;
  certified : bool;  (** [ok && bound_ok] *)
  operations : int;
  messages : int;
  events : int;
  pending : int;
  truncated : bool;
  retransmits : int;
  latency : Metrics.summary option;
  hist : Metrics.Hist.t;  (** streaming latency histogram of the run *)
  by_op : (string * Metrics.summary) list;
  by_kind : (Spec.Op_kind.t * Metrics.summary) list;
  bounds : (Spec.Op_kind.t * Rat.t * Rat.t) list;
      (** (class, worst observed, upper bound) *)
}

let bound_for ~algo ~(judged : Sim.Model.t) ~x kind =
  match algo with
  | Wtlw _ -> (
      match kind with
      | Spec.Op_kind.Pure_accessor -> Bounds.Theorems.ub_pure_accessor judged ~x
      | Spec.Op_kind.Pure_mutator -> Bounds.Theorems.ub_pure_mutator judged ~x
      | Spec.Op_kind.Mixed -> Bounds.Theorems.ub_mixed judged)
  | Centralized -> Bounds.Theorems.ub_centralized judged
  | Tob -> Bounds.Theorems.ub_tob judged

(* A cell is a scenario ([Scenario.of_sweep_cell]), lowered and run
   by its type's executor ([Exec.Run(T).run_report], through
   [Scenario.Packed_type.runner]); only the wall deadline and the
   bound check are added here.  The abort stays structured so the
   retry loop can match a timeout. *)
let attempt ?wall_budget_s s (c : cell) =
  let (module E : Scenario.Packed_type.RUNNER) =
    Scenario.Packed_type.runner c.dt
  in
  (* Per-cell wall budget: a closure over the start time, polled by the
     simulation loop.  An exhausted budget (deliberately including 0.0,
     which expires on the very first poll) ends as the [Deadline]
     abort. *)
  let deadline =
    Option.map
      (fun budget ->
        let t0 = Core.Clock.now_s () in
        fun () -> Core.Clock.now_s () -. t0 >= budget)
      wall_budget_s
  in
  match E.run_report ?deadline s with
  | Error _ as e -> e
  | Ok report ->
      let m = c.point in
      let judged =
        match report.channel with Some ch -> ch.effective | None -> m
      in
      let x = resolve_x m c.algo in
      let bounds =
        List.map
          (fun (kind, (s : Metrics.summary)) ->
            (kind, s.max, bound_for ~algo:c.algo ~judged ~x kind))
          report.by_kind
      in
      let bound_ok =
        List.for_all (fun (_, worst, ub) -> Rat.le worst ub) bounds
      in
      let lat = Metrics.Acc.create () in
      List.iter (fun (_, s) -> Metrics.Acc.absorb lat s) report.by_kind;
      let ok = E.R.ok report in
      Ok
        {
          key = s.name;
          run_seed = s.seed;
          ok;
          bound_ok;
          certified = ok && bound_ok;
          operations = List.length report.operations;
          messages = report.messages;
          events = report.events;
          pending = report.pending;
          truncated = report.truncated;
          retransmits =
            (match report.channel with
            | None -> 0
            | Some ch -> ch.stats.Core.Reliable.retransmits);
          latency = Metrics.Acc.summary lat;
          hist = report.hist;
          by_op = report.by_op;
          by_kind = report.by_kind;
          bounds;
        }

(* A cell's diagnostic.  The timeout leaves the event count out, so
   timed-out cells render identically across runs and the campaign
   fingerprint stays reproducible. *)
let diagnostic ~key ?wall_budget_s : Scenario.Exec.abort -> string = function
  | Node_budget { nodes; prefix; total } ->
      Format.asprintf "%s: %a (max_check_nodes)" key
        Lin.Checker.pp_budget_exceeded (nodes, prefix, total)
  | Deadline ->
      Printf.sprintf "%s: Cell_timeout: exceeded %gs wall budget" key
        (Option.value wall_budget_s ~default:0.0)
  | Bad_scenario msg | Invalid_run msg -> Printf.sprintf "%s: %s" key msg
  | Overflow as a ->
      Printf.sprintf "%s: %s" key (Scenario.Exec.abort_message a)

let eval ?wall_budget_s ?key grid (c : cell) : (verdict, string) result =
  let s = Scenario.of_sweep_cell ?key grid c in
  Result.map_error
    (diagnostic ~key:s.name ?wall_budget_s)
    (attempt ?wall_budget_s s c)

(* ---------- bounded retry with exponential backoff ---------- *)

type retry = { attempts : int; budget_s : float; backoff : float }

(* Evaluate one cell under the retry policy: each timed-out attempt
   widens the wall budget by [backoff] (a cell that is merely slow gets
   more room; a genuinely wedged one converges to a named Cell_timeout
   diagnostic after [attempts] tries).  Non-timeout failures are
   deterministic — retrying them would only repeat the work — so they
   return immediately.  Also returns the number of attempts spent. *)
let eval_with_retry ?retry ?key grid (c : cell) :
    (verdict, string) result * int =
  match retry with
  | None -> (eval ?key grid c, 1)
  | Some { attempts; budget_s; backoff } ->
      let attempts = max 1 attempts in
      let s = Scenario.of_sweep_cell ?key grid c in
      let rec go k budget =
        match attempt ~wall_budget_s:budget s c with
        | Error Deadline when k < attempts -> go (k + 1) (budget *. backoff)
        | Error Deadline ->
            ( Error
                (Printf.sprintf "%s (gave up after %d attempts)"
                   (diagnostic ~key:s.name ~wall_budget_s:budget Deadline)
                   attempts),
              k )
        | r ->
            (Result.map_error (diagnostic ~key:s.name ~wall_budget_s:budget) r, k)
      in
      go 1 budget_s

(* ---------- campaign execution ---------- *)

(* The input fingerprint of a rendered cell key. *)
let key_fingerprint ?code_fp grid =
  Runner.input_fingerprint ?code_fp ~max_events:(Some grid.max_events)
    ~max_check_nodes:grid.max_check_nodes grid.checker

let input_fingerprint ?code_fp grid =
  let fp = key_fingerprint ?code_fp grid in
  fun c -> fp (cell_key grid c)

(* The compiler is in the header; the code fingerprint is deliberately
   not: a rebuild must invalidate cells one by one through
   [input_fingerprint], not nuke the whole journal. *)
let journal_header = Journal.header "repro-sweep-cells;schema=1"

type cell_meta = Runner.meta = {
  wall_s : float;
  attempts : int;
  replayed : bool;
}

type resume_stats = Runner.resume_stats = {
  replayed : int;
  invalidated : int;
  executed : int;
  interrupted : bool;
  journal_diagnostics : string list;
}

type t = {
  grid : grid;
  cells : cell array;
  keys : string array;
  results : verdict Pool.outcome array;
  meta : cell_meta array;
  total : Metrics.summary option;
  hist : Metrics.Hist.t;  (** merged latency histogram of every cell *)
  by_kind : (Spec.Op_kind.t * Metrics.summary) list;  (** sorted by class *)
  resume : resume_stats;
  jobs : int;
  wall_s : float;
}

(* Run the grid's cells through the runner, then fold the campaign
   summaries once over the positional outcomes.  Because Acc/Hist/
   Grouped merging is exact, a replayed verdict counts exactly like a
   re-run one: resumed and spool-merged fingerprints are byte-identical
   to a fresh single-process run's.  Each cell's key is rendered once,
   before the pool starts, and serves the lowering, the journal, the
   input fingerprint and the reports. *)
let execute ?code_fp ~jobs ~fail_fast ~should_stop ~journal ~eval grid =
  let cells = Array.of_list (cells grid) in
  let keys = Array.map (cell_key grid) cells in
  let input_fp = key_fingerprint ?code_fp grid in
  let r =
    Runner.run ~jobs ~fail_fast ~should_stop ~journal ~key:(Array.get keys)
      ~input_fp:(fun i -> input_fp keys.(i))
      ~n:(Array.length cells)
      (fun i -> eval ~key:keys.(i) cells.(i))
  in
  let lat = Metrics.Acc.create () in
  let hist = Metrics.Hist.create () in
  let kinds = Metrics.Grouped.create () in
  Array.iter
    (function
      | Pool.Done v ->
          Option.iter (Metrics.Acc.absorb lat) v.latency;
          Metrics.Hist.merge hist v.hist;
          List.iter (fun (k, s) -> Metrics.Grouped.absorb kinds k s) v.by_kind
      | Pool.Failed _ | Pool.Skipped -> ())
    r.outcomes;
  {
    grid;
    cells;
    keys;
    results = r.outcomes;
    meta = r.meta;
    total = Metrics.Acc.summary lat;
    hist;
    by_kind =
      List.sort
        (fun (a, _) (b, _) ->
          compare (Spec.Op_kind.to_string a) (Spec.Op_kind.to_string b))
        (Metrics.Grouped.summaries kinds);
    resume = r.resume;
    jobs;
    wall_s = r.wall_s;
  }

let run ?(jobs = 1) ?(fail_fast = false) ?retry ?should_stop grid =
  execute ~jobs ~fail_fast ~should_stop ~journal:None
    ~eval:(fun ~key -> eval_with_retry ?retry ~key grid) grid

let run_durable ?(jobs = 1) ?(fail_fast = false) ?retry ?should_stop
    ?(sync_every = 1) ?(replay_failures = true) ?code_fp ~dir grid =
  execute ?code_fp ~jobs ~fail_fast ~should_stop
    ~journal:
      (Some
         (Runner.in_dir ~header:journal_header ~sync_every ~replay_failures
            dir))
    ~eval:(fun ~key -> eval_with_retry ?retry ~key grid) grid

let certified t =
  Array.length t.results > 0
  && Array.for_all
       (function Pool.Done v -> v.certified | Pool.Failed _ | Pool.Skipped -> false)
       t.results

let counts t =
  let done_ = ref 0 and failed = ref 0 and skipped = ref 0 and cert = ref 0 in
  Array.iter
    (function
      | Pool.Done v ->
          incr done_;
          if v.certified then incr cert
      | Pool.Failed _ -> incr failed
      | Pool.Skipped -> incr skipped)
    t.results;
  (!done_, !cert, !failed, !skipped)

(* ---------- deterministic fingerprint ---------- *)

let summary_str (s : Metrics.summary) =
  Printf.sprintf "count=%d min=%s max=%s mean=%s" s.count (Rat.to_string s.min)
    (Rat.to_string s.max) (Rat.to_string s.mean)

let fingerprint t =
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i key ->
      Buffer.add_string buf key;
      Buffer.add_string buf " => ";
      (match t.results.(i) with
      | Pool.Skipped -> Buffer.add_string buf "skipped"
      | Pool.Failed msg -> Buffer.add_string buf ("failed: " ^ msg)
      | Pool.Done v ->
          Buffer.add_string buf
            (Printf.sprintf "%s ops=%d messages=%d events=%d pending=%d%s"
               (if v.certified then "certified"
                else if v.ok then "bound-violation"
                else "flagged")
               v.operations v.messages v.events v.pending
               (match v.latency with
               | None -> ""
               | Some s -> " " ^ summary_str s)));
      Buffer.add_char buf '\n')
    t.keys;
  (match t.total with
  | None -> ()
  | Some s -> Buffer.add_string buf ("total: " ^ summary_str s ^ "\n"));
  (match Metrics.Hist.quantiles t.hist with
  | None -> ()
  | Some q ->
      Buffer.add_string buf
        (Format.asprintf "tail: %a\n" Metrics.Hist.pp_quantiles q));
  List.iter
    (fun (k, s) ->
      Buffer.add_string buf
        (Printf.sprintf "%s: %s\n" (Spec.Op_kind.to_string k) (summary_str s)))
    t.by_kind;
  Buffer.contents buf

(* ---------- reports ---------- *)

let retries t =
  Array.fold_left (fun acc m -> acc + max 0 (m.attempts - 1)) 0 t.meta

let pp ppf t =
  let done_, cert, failed, skipped = counts t in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i key ->
      let verdict =
        match t.results.(i) with
        | Pool.Skipped -> "SKIPPED"
        | Pool.Failed _ -> "FAILED"
        | Pool.Done v ->
            if v.certified then "certified"
            else if v.ok then "BOUND-VIOLATION"
            else "FLAGGED"
      in
      Format.fprintf ppf "%-16s %s@," verdict key)
    t.keys;
  (match t.total with
  | None -> ()
  | Some s ->
      Format.fprintf ppf "latency over %d operations: %a@," s.count
        Metrics.pp_summary s);
  (match Metrics.Hist.quantiles t.hist with
  | None -> ()
  | Some q -> Format.fprintf ppf "tail: %a@," Metrics.Hist.pp_quantiles q);
  List.iter
    (fun d -> Format.fprintf ppf "journal diagnostic: %s@," d)
    t.resume.journal_diagnostics;
  let retries = retries t in
  if t.resume.replayed > 0 || t.resume.invalidated > 0 || retries > 0 then
    Format.fprintf ppf "resume: %d replayed, %d invalidated, %d retries@,"
      t.resume.replayed t.resume.invalidated retries;
  if t.resume.interrupted then Format.fprintf ppf "INTERRUPTED (resumable)@,";
  Format.fprintf ppf
    "%d cells: %d done (%d certified), %d failed, %d skipped; jobs=%d \
     wall=%.2fs@]"
    (Array.length t.cells) done_ cert failed skipped t.jobs t.wall_s

let pp_json_verdict ppf (v : verdict) =
  Format.fprintf ppf
    "{\"status\":\"done\",\"seed\":%d,\"ok\":%b,\"bound_ok\":%b,\"certified\":%b,\"operations\":%d,\"messages\":%d,\"events\":%d,\"pending\":%d,\"truncated\":%b,\"retransmits\":%d"
    v.run_seed v.ok v.bound_ok v.certified v.operations v.messages v.events
    v.pending v.truncated v.retransmits;
  (match v.latency with
  | None -> ()
  | Some s -> Format.fprintf ppf ",\"latency\":%a" Metrics.pp_json_summary s);
  (match Metrics.Hist.quantiles v.hist with
  | None -> ()
  | Some q ->
      Format.fprintf ppf ",\"quantiles\":%a" Metrics.Hist.pp_json_quantiles q);
  Format.fprintf ppf ",\"bounds\":[";
  List.iteri
    (fun i (k, worst, ub) ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf
        "{\"class\":\"%s\",\"worst\":\"%s\",\"bound\":\"%s\",\"within\":%b}"
        (Spec.Op_kind.to_string k) (Rat.to_string worst) (Rat.to_string ub)
        (Rat.le worst ub))
    v.bounds;
  Format.fprintf ppf "]}"

let pp_json ppf t =
  let done_, cert, failed, skipped = counts t in
  Format.fprintf ppf "{\"cells\":[";
  Array.iteri
    (fun i key ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "{\"key\":%s,\"verdict\":" (Core.Json.quote key);
      (match t.results.(i) with
      | Pool.Skipped -> Format.fprintf ppf "{\"status\":\"skipped\"}"
      | Pool.Failed msg ->
          Format.fprintf ppf "{\"status\":\"failed\",\"error\":%s}"
            (Core.Json.quote msg)
      | Pool.Done v -> pp_json_verdict ppf v);
      (* Observability only — like jobs/wall_s, never fingerprinted. *)
      let m = t.meta.(i) in
      Format.fprintf ppf ",\"wall_s\":%.3f,\"attempts\":%d,\"replayed\":%b}"
        m.wall_s m.attempts m.replayed)
    t.keys;
  Format.fprintf ppf "],\"summary\":{";
  (match t.total with
  | None -> ()
  | Some s -> Format.fprintf ppf "\"latency\":%a," Metrics.pp_json_summary s);
  (match Metrics.Hist.quantiles t.hist with
  | None -> ()
  | Some q ->
      Format.fprintf ppf "\"quantiles\":%a," Metrics.Hist.pp_json_quantiles q);
  Format.fprintf ppf "\"by_kind\":[";
  List.iteri
    (fun i (k, s) ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "{\"class\":\"%s\",\"latency\":%a}"
        (Spec.Op_kind.to_string k) Metrics.pp_json_summary s)
    t.by_kind;
  Format.fprintf ppf
    "],\"done\":%d,\"certified_cells\":%d,\"failed\":%d,\"skipped\":%d,\"replayed\":%d,\"invalidated\":%d,\"executed\":%d,\"retries\":%d,\"interrupted\":%b,\"journal_diagnostics\":[%s]},\"jobs\":%d,\"wall_s\":%.3f,\"certified\":%b}"
    done_ cert failed skipped t.resume.replayed t.resume.invalidated
    t.resume.executed (retries t) t.resume.interrupted
    (String.concat "," (List.map Core.Json.quote t.resume.journal_diagnostics))
    t.jobs t.wall_s (certified t)

(* ---------- robustness matrix on the pool ---------- *)

(* The full (data type x nemesis case) robustness matrix, one pool job
   per cell.  A cell's outcome depends only on its coordinates (both
   legs reuse the caller's seed, exactly as the old sequential driver
   did), so the matrix is identical for every [jobs] count and is
   always returned in (type, case) order.  fail_fast is deliberately
   not offered: certification semantics require every cell's verdict. *)
let robustness ?(jobs = 1) ?should_stop ~model ~x ~seed types =
  let work =
    Array.of_list
      (List.concat_map
         (fun dt ->
           List.map
             (fun case -> (dt, case))
             (Scenario.Robustness.default_cases ~seed model))
         types)
  in
  let results =
    Pool.map ?should_stop ~jobs ~fail_fast:false ~n:(Array.length work)
      (fun i ->
        let dt, case = work.(i) in
        Ok (Scenario.Robustness.run_cell ~model ~x ~seed dt case))
  in
  Array.to_list
    (Array.mapi
       (fun i outcome ->
         let aborted msg =
           let dt, case = work.(i) in
           Scenario.Robustness.judge ~model ~x ~seed dt case (fun s ->
               Scenario.Exec.aborted s ~wall_s:0. msg)
         in
         match outcome with
         | Pool.Done cell -> cell
         | Pool.Failed msg -> aborted msg
         | Pool.Skipped -> aborted "skipped")
       results)

(* ---------- the paper's tables, measured ---------- *)

type measured_row = {
  row : Bounds.Tables.row;
  alg1 : Rat.t option;
  centralized : Rat.t option;
  tob : Rat.t option;
  within : bool;
}

type measured_table = {
  table : Bounds.Tables.table;
  measured : measured_row list;
}

(* Tables 1-4 with the type each one measures, in paper order. *)
let table_types =
  [
    ("rmw-register", Bounds.Tables.rmw_register);
    ("queue", Bounds.Tables.queue);
    ("stack", Bounds.Tables.stack);
    ("tree", Bounds.Tables.tree);
  ]

let wtlw_at (model : Sim.Model.t) ~x =
  let range = Rat.sub model.d model.eps in
  Wtlw { frac = (if Rat.sign range = 0 then Rat.zero else Rat.div x range) }

(* Algorithm 1 at [x] and both baselines on the tables' types, under
   random delays and the all-max / all-min schedules that realize the
   worst cases. *)
let tables_grid model ~x =
  {
    default_grid with
    types =
      List.filter_map (fun (k, _) -> Scenario.Packed_type.find k) table_types;
    algos = [ wtlw_at model ~x; Centralized; Tob ];
    points = [ model ];
    delays = [ Random_delays; Max_delays; Min_delays ];
    legs = [ Raw ];
    seeds = [ 10; 11 ];
    per_proc = 8;
  }

let measure_tables model ~x =
  let tables =
    List.map (fun (dt, table) -> (dt, table model ~x)) table_types
    @ [ ("", Bounds.Tables.summary model ~x) ]
  in
  let t = run (tables_grid model ~x) in
  (* Worst case per (algorithm, type, measure); a class is measured
     over every type, under the type "". *)
  let worst = Hashtbl.create 64 in
  let absorb key (s : Metrics.summary) =
    Hashtbl.replace worst key
      (Option.fold ~none:s.max ~some:(Rat.max s.max)
         (Hashtbl.find_opt worst key))
  in
  let failure = ref None in
  Array.iteri
    (fun i (c : cell) ->
      let algo = algo_label c.algo in
      match t.results.(i) with
      | Pool.Done v ->
          let dt = Scenario.Packed_type.key c.dt in
          List.iter
            (fun (op, s) -> absorb (algo, dt, Bounds.Tables.Op op) s)
            v.by_op;
          List.iter
            (fun (k, s) -> absorb (algo, "", Bounds.Tables.Class k) s)
            v.by_kind
      | Pool.Failed msg ->
          if Option.is_none !failure then
            failure := Some (t.keys.(i) ^ ": " ^ msg)
      | Pool.Skipped -> ())
    t.cells;
  (* A row's worst case under [algo]: its one measure's, or the sum of
     its two. *)
  let value algo dt (row : Bounds.Tables.row) =
    List.fold_left
      (fun acc m ->
        match (acc, Hashtbl.find_opt worst (algo_label algo, dt, m)) with
        | Some total, Some w -> Some (Rat.add total w)
        | _ -> None)
      (Some Rat.zero) row.measures
  in
  let measure (dt, (table : Bounds.Tables.table)) =
    let measure_row (row : Bounds.Tables.row) =
      let alg1 = value (wtlw_at model ~x) dt row in
      let within v =
        Rat.le v row.new_ub.value
        &&
        match row.new_lb with None -> true | Some lb -> Rat.ge v lb.value
      in
      {
        row;
        alg1;
        centralized = value Centralized dt row;
        tob = value Tob dt row;
        within = Option.fold ~none:true ~some:within alg1;
      }
    in
    { table; measured = List.map measure_row table.rows }
  in
  match !failure with
  | Some msg -> Error msg
  | None -> Ok (List.map measure tables)

let pp_measured_table ppf { table; measured } =
  let value = Option.fold ~none:"-" ~some:Rat.to_string in
  Format.fprintf ppf
    "@[<v>%s@,%-46s | %-30s | %-30s | %-30s | %-6s | %-6s | %-6s | %s@,%s"
    table.title "Operation" "Previous LB" "New LB" "New UB" "Alg. 1" "centr."
    "TOB" "LB <= Alg. 1 <= UB" (String.make 196 '-');
  List.iter
    (fun m ->
      Format.fprintf ppf "@,%-46s | %a | %a | %a | %-6s | %-6s | %-6s | %s"
        m.row.operation Bounds.Tables.pp_bound m.row.prev_lb
        Bounds.Tables.pp_bound m.row.new_lb Bounds.Tables.pp_bound
        (Some m.row.new_ub) (value m.alg1) (value m.centralized) (value m.tob)
        (match m.alg1 with
        | None -> "-"
        | Some _ -> if m.within then "ok" else "VIOLATION"))
    measured;
  Format.fprintf ppf "@]"
