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

(* Algorithm axis of the grid.  Wtlw's tradeoff parameter is declared
   as a fraction of [d - eps] so one grid entry stays valid at every
   model point (Lemma 4 requires X in [0, d - eps]). *)
type algo =
  | Wtlw of { frac : Rat.t }
  | Centralized
  | Tob

let algo_label = function
  | Wtlw { frac } -> Printf.sprintf "wtlw(%s)" (Rat.to_string frac)
  | Centralized -> "centralized"
  | Tob -> "tob"

let resolve_x (m : Sim.Model.t) = function
  | Wtlw { frac } -> Rat.mul frac (Rat.sub m.d m.eps)
  | Centralized | Tob -> Rat.zero

let runtime_algo (m : Sim.Model.t) = function
  | Wtlw _ as a -> Core.Runtime.Wtlw { x = resolve_x m a }
  | Centralized -> Core.Runtime.Centralized
  | Tob -> Core.Runtime.Tob

type channel_leg = Raw | Recovered

let leg_label = function Raw -> "raw" | Recovered -> "recovered"

(* Delay-schedule axis: random admissible delays (seeded from the cell
   coordinates), or the all-max / all-min adversarial schedules the
   table measurements use to realize worst cases. *)
type delays = Random_delays | Max_delays | Min_delays

let delays_label = function
  | Random_delays -> "random"
  | Max_delays -> "max"
  | Min_delays -> "min"

type grid = {
  types : Packed_type.t list;
  algos : algo list;
  points : Sim.Model.t list;
  delays : delays list;
  plans : (string * Sim.Fault.plan) list;
  legs : channel_leg list;
  seeds : int list;
  per_proc : int;
  max_events : int;
  max_check_nodes : int option;
  checker : Core.Runtime.checker;
      (** certification engine for every cell; [Monitor] routes through
          the specialized per-type monitors with Wing-Gong fallback *)
}

let default_points =
  [
    Sim.Model.make ~n:3 ~d:(Rat.of_int 10) ~u:(Rat.of_int 4) ~eps:Rat.one;
    Sim.Model.make ~n:4 ~d:(Rat.of_int 8) ~u:(Rat.of_int 2)
      ~eps:(Rat.make 1 2);
  ]

(* The reference grid of the acceptance criteria: every bundled type,
   all three algorithms, two model points, both channel legs. *)
let default_grid =
  {
    types = Packed_type.all;
    algos = [ Wtlw { frac = Rat.make 1 2 }; Centralized; Tob ];
    points = default_points;
    delays = [ Random_delays ];
    plans = [ ("none", Sim.Fault.none) ];
    legs = [ Raw; Recovered ];
    seeds = [ 1 ];
    per_proc = 2;
    max_events = 500_000;
    max_check_nodes = Some 5_000_000;
    checker = Core.Runtime.Monitor;
  }

type cell = {
  dt : Packed_type.t;
  algo : algo;
  point : Sim.Model.t;
  delays : delays;
  plan_label : string;
  plan : Sim.Fault.plan;
  leg : channel_leg;
  seed : int;  (** the grid's base seed; the run uses {!derived_seed} *)
}

let cells grid =
  let ( let* ) axis f = List.concat_map f axis in
  let* dt = grid.types in
  let* algo = grid.algos in
  let* point = grid.points in
  let* delays = grid.delays in
  let* plan_label, plan = grid.plans in
  let* leg = grid.legs in
  List.map
    (fun seed -> { dt; algo; point; delays; plan_label; plan; leg; seed })
    grid.seeds

(* Canonical cell coordinates.  This string is both the human-readable
   cell id in reports and the input to the seed hash, so it must name
   every axis that can change the run. *)
let cell_key grid (c : cell) =
  let m = c.point in
  Printf.sprintf
    "type=%s;algo=%s;n=%d;d=%s;u=%s;eps=%s;delays=%s;faults=%s;leg=%s;seed=%d;per_proc=%d"
    (Packed_type.key c.dt) (algo_label c.algo) m.n (Rat.to_string m.d)
    (Rat.to_string m.u) (Rat.to_string m.eps) (delays_label c.delays)
    c.plan_label (leg_label c.leg) c.seed grid.per_proc

let derived_seed grid c = Journal.fnv1a (cell_key grid c)

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

let eval ?wall_budget_s grid (c : cell) : (verdict, string) result =
  let key = cell_key grid c in
  let seed = derived_seed grid c in
  let m = c.point in
  let (module T : Spec.Data_type.S) = Packed_type.modl c.dt in
  let module R = Core.Runtime.Make (T) in
  let delay =
    match c.delays with
    | Random_delays -> Sim.Net.random_model ~seed m
    | Max_delays -> Sim.Net.max_delay_model m
    | Min_delays -> Sim.Net.min_delay_model m
  in
  (* Per-cell wall budget: a closure over the start time, polled by the
     simulation loop.  An exhausted budget (deliberately including 0.0,
     which expires on the very first poll) surfaces below as the named
     Cell_timeout diagnostic — the event-count is left out of the
     message so timed-out cells render identically across runs and the
     campaign fingerprint stays reproducible. *)
  let deadline =
    Option.map
      (fun budget ->
        let t0 = Core.Clock.now_s () in
        fun () -> Core.Clock.now_s () -. t0 >= budget)
      wall_budget_s
  in
  let cfg =
    R.Config.make ~faults:c.plan ~max_events:grid.max_events
      ?max_check_nodes:grid.max_check_nodes ?deadline ~checker:grid.checker
      ~model:m
      ~offsets:(Array.make m.n Rat.zero)
      ~delay
      ~algorithm:(runtime_algo m c.algo)
      ~workload:
        (R.Closed_loop { per_proc = grid.per_proc; think = Rat.make 1 2; seed })
      ()
  in
  let cfg = match c.leg with Raw -> cfg | Recovered -> R.Config.reliable cfg in
  match R.run cfg with
  | exception Lin.Checker.Node_budget_exceeded { nodes; prefix; total } ->
      Error
        (Format.asprintf "%s: %a (max_check_nodes)" key
           Lin.Checker.pp_budget_exceeded (nodes, prefix, total))
  | exception Sim.Engine.Deadline_exceeded _ ->
      Error
        (Printf.sprintf "%s: Cell_timeout: exceeded %gs wall budget" key
           (Option.value wall_budget_s ~default:0.0))
  | exception Invalid_argument msg -> Error (Printf.sprintf "%s: %s" key msg)
  | report ->
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
      let ok = R.ok report in
      Ok
        {
          key;
          run_seed = seed;
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

(* ---------- bounded retry with exponential backoff ---------- *)

type retry = { attempts : int; budget_s : float; backoff : float }

let cell_timed_out msg =
  let needle = "Cell_timeout" in
  let nl = String.length needle and ml = String.length msg in
  let rec at i = i + nl <= ml && (String.sub msg i nl = needle || at (i + 1)) in
  at 0

(* Evaluate one cell under the retry policy: each timed-out attempt
   widens the wall budget by [backoff] (a cell that is merely slow gets
   more room; a genuinely wedged one converges to a named Cell_timeout
   diagnostic after [attempts] tries).  Non-timeout failures are
   deterministic — retrying them would only repeat the work — so they
   return immediately.  Also returns the number of attempts spent. *)
let eval_with_retry ?retry grid (c : cell) : (verdict, string) result * int =
  match retry with
  | None -> (eval grid c, 1)
  | Some { attempts; budget_s; backoff } ->
      let attempts = max 1 attempts in
      let rec go k budget =
        match eval ~wall_budget_s:budget grid c with
        | Error msg when cell_timed_out msg ->
            if k < attempts then go (k + 1) (budget *. backoff)
            else
              ( Error
                  (Printf.sprintf "%s (gave up after %d attempts)" msg attempts),
                k )
        | r -> (r, k)
      in
      go 1 budget_s

(* ---------- campaign execution ---------- *)

let input_fingerprint ?code_fp grid =
  let fp =
    Runner.input_fingerprint ?code_fp ~max_events:(Some grid.max_events)
      ~max_check_nodes:grid.max_check_nodes grid.checker
  in
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
   to a fresh single-process run's. *)
let execute ?code_fp ~jobs ~fail_fast ~should_stop ~journal ~eval grid =
  let cells = Array.of_list (cells grid) in
  let input_fp = input_fingerprint ?code_fp grid in
  let r =
    Runner.run ~jobs ~fail_fast ~should_stop ~journal
      ~key:(fun i -> cell_key grid cells.(i))
      ~input_fp:(fun i -> input_fp cells.(i))
      ~n:(Array.length cells)
      (fun i -> eval cells.(i))
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
    ~eval:(eval_with_retry ?retry grid) grid

let run_durable ?(jobs = 1) ?(fail_fast = false) ?retry ?should_stop
    ?(sync_every = 1) ?(replay_failures = true) ?code_fp ~dir grid =
  execute ?code_fp ~jobs ~fail_fast ~should_stop
    ~journal:
      (Some
         (Runner.in_dir ~header:journal_header ~sync_every ~replay_failures
            dir))
    ~eval:(eval_with_retry ?retry grid) grid

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
    (fun i c ->
      Buffer.add_string buf (cell_key t.grid c);
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
    t.cells;
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
    (fun i c ->
      let verdict =
        match t.results.(i) with
        | Pool.Skipped -> "SKIPPED"
        | Pool.Failed _ -> "FAILED"
        | Pool.Done v ->
            if v.certified then "certified"
            else if v.ok then "BOUND-VIOLATION"
            else "FLAGGED"
      in
      Format.fprintf ppf "%-16s %s@," verdict (cell_key t.grid c))
    t.cells;
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
    (fun i c ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "{\"key\":%s,\"verdict\":"
        (Core.Json.quote (cell_key t.grid c));
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
    t.cells;
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
let robustness ?(jobs = 1) ?should_stop ?per_proc ~model ~x ~seed types =
  let work =
    Array.of_list
      (List.concat_map
         (fun dt ->
           List.map
             (fun case -> (dt, case))
             (Core.Robustness.default_cases ~seed model))
         types)
  in
  let results =
    Pool.map ?should_stop ~jobs ~fail_fast:false ~n:(Array.length work)
      (fun i ->
        let dt, case = work.(i) in
        let (module T : Spec.Data_type.S) = Packed_type.modl dt in
        let module M = Core.Robustness.Make (T) in
        Ok (M.run_cell ?per_proc ~model ~x ~seed case))
  in
  Array.to_list
    (Array.mapi
       (fun i outcome ->
         let aborted msg =
           let dt, case = work.(i) in
           let leg = Core.Robustness.aborted_leg msg in
           Core.Robustness.cell_of_legs ~data_type:(Packed_type.spec_name dt)
             case ~raw:leg ~recovered:leg
         in
         match outcome with
         | Pool.Done cell -> cell
         | Pool.Failed msg -> aborted msg
         | Pool.Skipped -> aborted "skipped")
       results)
