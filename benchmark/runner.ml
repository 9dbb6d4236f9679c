(* Running the benchmark: a parent spawns one child process per
   (workload, repetition), one at a time, and aggregates what the
   children report.

   Each repetition runs in a fresh process so the GC counters repeat
   exactly (as [Perf.Measure] documents) and so set-up time includes
   runtime start-up.  Workloads are interleaved across repetitions
   (W1..Wn, W1..Wn, ...) so machine drift spreads over all of them. *)

open Workloads

(* ---- metric catalogue (units must match BENCHMARK.json) ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("peak_rss_mb", "MB");
    ("alloc_words_per_op", "words/op");
    ("sim_latency_mean", "sim-time");
  ]

let per_layer =
  [
    ("workload.busy_s", "s");
    ("workload.items", "count");
    ("workload.kept_frac", "ratio");
    ("engine.busy_s", "s");
    ("engine.events", "count");
    ("engine.ns_per_event", "ns");
    ("fault.injected", "count");
    ("protocol.busy_s", "s");
    ("protocol.calls", "count");
    ("protocol.sends", "count");
    ("protocol.msgs_per_op", "msgs/op");
    ("protocol.sim_latency_p99", "sim-time");
    ("reliable.busy_s", "s");
    ("reliable.retransmits", "count");
    ("monitor.records_s", "s");
  ]
  @ List.map
      (fun k -> ("monitor.kernel_s." ^ Tracer.kind_name k, "s"))
      Tracer.kinds
  @ [
      ("monitor.verify_s", "s");
      ("monitor.checks", "count");
      ("monitor.certified_frac", "ratio");
      ("monitor.cert_rejects", "count");
      ("lin.busy_s", "s");
      ("lin.fallbacks", "count");
      ("lin.budget_failures", "count");
      ("shard.group_s", "s");
      ("shard.merge_s", "s");
      ("shard.keys", "count");
      ("sweep.busy_s", "s");
      ("sweep.cell_p50_ms", "ms");
      ("sweep.cell_p99_ms", "ms");
      ("sweep.cell_s.wtlw", "s");
      ("sweep.cell_s.centralized", "s");
      ("sweep.cell_s.tob", "s");
      ("sweep.cell_s.raw", "s");
      ("sweep.cell_s.recovered", "s");
      ("journal.append_s", "s");
      ("journal.load_s", "s");
      ("journal.bytes", "bytes");
      ("journal.fsyncs", "count");
      ("scenario.codec_s", "s");
      ("scenario.exec_s", "s");
      ("scenario.run_p50_ms", "ms");
      ("scenario.run_p99_ms", "ms");
      ("gc.minor_words", "words");
      ("gc.promoted_words", "words");
      ("gc.major_collections", "count");
      ("trace.coverage", "ratio");
      ("trace.overhead_frac", "ratio");
    ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* ---- child side ---- *)

let now = Perf.Measure.monotonic_ns

(* Peak resident set of this process, from the kernel's high-water
   mark; the major heap's peak is the fallback off Linux. *)
let peak_rss_kb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf_opt
                (String.sub line 6 (String.length line - 6))
                " %d" Fun.id
          | _ -> scan ()
        in
        let r = scan () in
        close_in ic;
        r
  in
  match from_proc with
  | Some kb -> kb
  | None -> (Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8) / 1024

let latency_mean (o : outcome) =
  match Core.Metrics.Hist.summary o.latency with
  | Some s -> Rat.to_float s.mean
  | None -> 0.

let latency_p99 (o : outcome) =
  if Core.Metrics.Hist.count o.latency = 0 then 0.
  else Core.Metrics.Hist.quantile o.latency 0.99

let outcome_fields (o : outcome) =
  let open Json in
  [
    ("attempted", Num (float_of_int o.attempted));
    ("failed", Num (float_of_int o.failed));
    ("ops", Num (float_of_int o.ops));
    ("lat_mean", Num (latency_mean o));
    ("digest", Str o.digest);
    ("fingerprint", Str o.fingerprint);
    ("problems", Arr (List.map (fun p -> Str p) o.problems));
  ]

(* Per-layer numbers of one traced run. *)
let layer_values tr (o : outcome) =
  let c = Tracer.counter tr in
  let ratio a b = if b = 0. then 0. else a /. b in
  let quantile_ms layer q =
    let ds = List.map Tracer.duration_s (Tracer.spans_of tr layer) in
    match ds with
    | [] -> 0.
    | _ ->
        let a = Array.of_list (List.sort Float.compare ds) in
        let i = min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))) in
        a.(i) *. 1e3
  in
  let self = Tracer.self_s tr in
  [
    ("workload.busy_s", self Tracer.Workload);
    ("workload.items", c "workload.items");
    ("workload.kept_frac", ratio (c "workload.kept") (c "workload.items"));
    ("engine.busy_s", self Tracer.Engine);
    ("engine.events", c "engine.events");
    ("engine.ns_per_event", ratio (self Tracer.Engine *. 1e9) (c "engine.events"));
    ("fault.injected", c "fault.injected");
    ("protocol.busy_s", self Tracer.Protocol);
    ("protocol.calls", float_of_int (Tracer.calls tr Tracer.Protocol));
    ("protocol.sends", c "protocol.sends");
    ("protocol.msgs_per_op", ratio (c "messages") (float_of_int o.ops));
    ("protocol.sim_latency_p99", latency_p99 o);
    ("reliable.busy_s", self Tracer.Reliable);
    ("reliable.retransmits", c "reliable.retransmits");
    ("monitor.records_s", self Tracer.Records);
  ]
  @ List.map
      (fun k -> ("monitor.kernel_s." ^ Tracer.kind_name k, self (Tracer.Kernel k)))
      Tracer.kinds
  @ [
      ("monitor.verify_s", self Tracer.Verify);
      ("monitor.checks", c "monitor.checks");
      ("monitor.certified_frac", ratio (c "monitor.certified") (c "monitor.checks"));
      ("monitor.cert_rejects", c "monitor.cert_rejects");
      ("lin.busy_s", self Tracer.Lin);
      ("lin.fallbacks", c "lin.fallbacks");
      ("lin.budget_failures", c "lin.budget_failures");
      ("shard.group_s", self Tracer.Shard_group);
      ("shard.merge_s", self Tracer.Shard_merge);
      ("shard.keys", c "shard.keys");
      ("sweep.busy_s", self Tracer.Sweep_cell);
      ("sweep.cell_p50_ms", quantile_ms Tracer.Sweep_cell 0.5);
      ("sweep.cell_p99_ms", quantile_ms Tracer.Sweep_cell 0.99);
      ("sweep.cell_s.wtlw", c "sweep.cell_s.wtlw");
      ("sweep.cell_s.centralized", c "sweep.cell_s.centralized");
      ("sweep.cell_s.tob", c "sweep.cell_s.tob");
      ("sweep.cell_s.raw", c "sweep.cell_s.raw");
      ("sweep.cell_s.recovered", c "sweep.cell_s.recovered");
      ("journal.append_s", self Tracer.Journal_append);
      ("journal.load_s", self Tracer.Journal_load);
      ("journal.bytes", c "journal.bytes");
      ("journal.fsyncs", c "journal.fsyncs");
      ("scenario.codec_s", self Tracer.Codec);
      ("scenario.exec_s", self Tracer.Exec);
      ("scenario.run_p50_ms", quantile_ms Tracer.Exec 0.5);
      ("scenario.run_p99_ms", quantile_ms Tracer.Exec 0.99);
      ("trace.coverage", Tracer.coverage tr);
    ]

(* The traced recomposition under one root span, from input
   generation on. *)
let traced_run (w : Workloads.t) ~scale ~seed =
  let tr = Tracer.create () in
  let finish =
    Tracer.coarse tr Tracer.Harness w.name (fun () ->
        (w.setup tr ~scale ~seed).traced ())
  in
  (tr, finish ())

(* One repetition, in this process; the report is one JSON object. *)
let child_report (w : Workloads.t) ~seed ~scale ~traced =
  let open Json in
  if not traced then begin
    let t0 = now () in
    let job = w.setup (Tracer.off ()) ~scale ~seed in
    let setup_end = now () in
    let finish, m = Perf.Measure.measure job.pipeline in
    let o = finish () in
    Obj
      ([
         ("setup_end_ns", Num (float_of_int setup_end));
         ("setup_ns", Num (float_of_int (setup_end - t0)));
         ("wall_ns", Num (float_of_int m.wall_ns));
         ("minor_words", Num m.minor_words);
         ("promoted_words", Num m.promoted_words);
         ("major_collections", Num (float_of_int m.major_collections));
         ("peak_rss_kb", Num (float_of_int (peak_rss_kb ())));
       ]
      @ outcome_fields o)
  end
  else begin
    let tr, o = traced_run w ~scale ~seed in
    Sweep.Journal.mkdir_p scratch_dir;
    Json.to_file
      (Filename.concat scratch_dir (Printf.sprintf "spans-%s.json" w.name))
      (Tracer.to_json tr);
    Obj
      ([
         ("traced_ns", Num (Tracer.root_s tr *. 1e9));
         ( "layers",
           Obj (List.map (fun (k, v) -> (k, Num v)) (layer_values tr o)) );
       ]
      @ outcome_fields o)
  end

(* ---- parent side ---- *)

(* One finished repetition. *)
type rep = { report : Json.t; spawn_ns : int }

let child_deadline_s = 120.

(* Run one child to completion or to its wall deadline, whichever
   comes first; a child past its deadline is killed and reaped. *)
let spawn_child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawn_ns = now () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let deadline_ns = spawn_ns + int_of_float (child_deadline_s *. 1e9) in
  let rec pump () =
    let left = float_of_int (deadline_ns - now ()) /. 1e9 in
    if left <= 0. then `Timeout
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> pump ()
      | _ -> (
          match Unix.read rd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              pump ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let ended = pump () in
  if ended = `Timeout then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  Unix.close rd;
  let rec reap () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  let status = reap () in
  match (ended, status) with
  | `Timeout, _ ->
      Error (Printf.sprintf "timeout: child killed after %.0f s" child_deadline_s)
  | `Eof, Unix.WEXITED 0 -> (
        let lines =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> String.trim l <> "")
        in
        match List.rev lines with
        | last :: _ -> (
            match Json.parse last with
            | report -> Ok { report; spawn_ns }
            | exception Json.Parse_error e -> Error ("unreadable child report: " ^ e))
        | [] -> Error "child printed no report")
  | `Eof, Unix.WEXITED c -> Error (Printf.sprintf "child exited with code %d" c)
  | `Eof, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "child killed by signal %d" s)

let child_args (w : Workloads.t) ~seed ~scale ~traced =
  [
    "child";
    "--workload";
    w.name;
    "--seed";
    string_of_int seed;
    "--scale";
    Printf.sprintf "%.17g" scale;
    "--trace";
    (if traced then "1" else "0");
  ]

(* Everything gathered for one workload across its repetitions. *)
type acc = {
  workload : Workloads.t;
  mutable untraced : rep list;
  mutable traced_reports : Json.t list;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let note acc p = if not (List.mem p acc.problems) then acc.problems <- acc.problems @ [ p ]

let absorb acc (r : Json.t) =
  acc.attempted <- acc.attempted + Json.to_int (Json.field "attempted" r);
  acc.failed <- acc.failed + Json.to_int (Json.field "failed" r);
  List.iter
    (fun p -> note acc (Json.to_string_exn p))
    (Json.to_list (Json.field "problems" r))

let child_failed acc msg =
  (* a crashed or timed-out child is one failed unit *)
  acc.attempted <- acc.attempted + 1;
  acc.failed <- acc.failed + 1;
  note acc msg

let num k r = Json.to_float (Json.field k r)

(* The end-to-end values of one untraced repetition. *)
let e2e_values { report = r; spawn_ns } =
  let ops = num "ops" r in
  let per_op x = if ops = 0. then 0. else x /. ops in
  [
    ("setup_s", (num "setup_end_ns" r -. float_of_int spawn_ns) /. 1e9);
    ("ops_per_s", ops /. (num "wall_ns" r /. 1e9));
    ("peak_rss_mb", num "peak_rss_kb" r /. 1024.);
    ("alloc_words_per_op", per_op (num "minor_words" r));
    ("sim_latency_mean", num "lat_mean" r);
  ]

let column name rows = List.map (fun vs -> List.assoc name vs) rows

type summary = { median : float; q1 : float; q3 : float; values : float list }

let summarize values =
  let q1, q3 = Stats.quartiles values in
  { median = Stats.median values; q1; q3; values }

(* Metrics of one workload: end-to-end ones from untraced
   repetitions, per-layer ones from traced repetitions. *)
let metrics acc ~traced =
  let untraced = List.rev acc.untraced in
  if not traced then
    let rows = List.map e2e_values untraced in
    List.map (fun (name, _) -> (name, summarize (column name rows))) end_to_end
  else
    let layer_rows =
      List.map
        (fun r -> List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_assoc (Json.field "layers" r)))
        acc.traced_reports
    in
    let gc_rows =
      List.map
        (fun { report = r; _ } ->
          [
            ("gc.minor_words", num "minor_words" r);
            ("gc.promoted_words", num "promoted_words" r);
            ("gc.major_collections", num "major_collections" r);
          ])
        untraced
    in
    let overhead =
      let traced = Stats.median (List.map (num "traced_ns") acc.traced_reports) in
      let plain =
        Stats.median
          (List.map (fun { report = r; _ } -> num "setup_ns" r +. num "wall_ns" r) untraced)
      in
      if plain > 0. then [ traced /. plain -. 1. ] else []
    in
    List.map
      (fun (name, _) ->
        let values =
          match name with
          | "gc.minor_words" | "gc.promoted_words" | "gc.major_collections" ->
              column name gc_rows
          | "trace.overhead_frac" -> overhead
          | _ -> column name layer_rows
        in
        (name, summarize values))
      per_layer

let digest_check acc ~traced =
  let digests =
    List.map (fun { report = r; _ } -> Json.to_string_exn (Json.field "digest" r)) acc.untraced
  in
  (match List.sort_uniq compare digests with
  | [] | [ _ ] -> ()
  | _ -> note acc "outcome digest differs between repetitions of the same seed");
  if traced then
    match digests with
    | d :: _ ->
        List.iter
          (fun r ->
            if Json.to_string_exn (Json.field "digest" r) <> d then
              note acc
                "traced recomposition disagrees with the pipeline's outcome")
          acc.traced_reports
    | [] -> ()

let fingerprint acc =
  match acc.untraced with
  | { report = r; _ } :: _ -> Json.to_string_exn (Json.field "fingerprint" r)
  | [] -> ""

(* Repetitions run until each workload has [reps] of them and, when
   [seconds] is set, until [seconds] per workload have passed; a round
   is not started once the run nears [time_cap_s] per workload. *)
let time_cap_s = 150.

let run ~workloads ~seed ~scale ~seconds ~reps ~traced =
  let accs =
    List.map
      (fun w ->
        { workload = w; untraced = []; traced_reports = []; attempted = 0; failed = 0; problems = [] })
      workloads
  in
  let n = float_of_int (List.length workloads) in
  let seconds_since t = float_of_int (now () - t) /. 1e9 in
  let t0 = now () in
  let elapsed () = seconds_since t0 in
  let rec rounds k last_round_s =
    let more = k < reps || elapsed () < seconds *. n in
    let room = elapsed () +. last_round_s < time_cap_s *. n in
    if more && (k = 0 || room) then begin
      let r0 = now () in
      List.iter
        (fun acc ->
          let go ~traced =
            match spawn_child (child_args acc.workload ~seed ~scale ~traced) with
            | Error msg -> child_failed acc msg
            | Ok rep ->
                absorb acc rep.report;
                if traced then acc.traced_reports <- rep.report :: acc.traced_reports
                else acc.untraced <- rep :: acc.untraced
          in
          go ~traced:false;
          if traced then go ~traced:true)
        accs;
      rounds (k + 1) (seconds_since r0)
    end
  in
  rounds 0 0.;
  List.iter
    (fun acc ->
      digest_check acc ~traced;
      if acc.untraced = [] || (traced && acc.traced_reports = []) then
        note acc "no repetition completed")
    accs;
  accs

(* ---- reporting ---- *)

let result_json accs ~seed ~scale ~traced =
  let open Json in
  let metric_json (name, s) =
    ( name,
      Obj
        [
          ("unit", Str (unit_of name));
          ("median", Num s.median);
          ("q1", Num s.q1);
          ("q3", Num s.q3);
          ("values", Arr (List.map (fun v -> Num v) s.values));
        ] )
  in
  Obj
    [
      ("seed", Num (float_of_int seed));
      ("scale", Num scale);
      ("traced", Bool traced);
      ( "workloads",
        Obj
          (List.map
             (fun acc ->
               ( acc.workload.name,
                 Obj
                   [
                     ("reps", Num (float_of_int (List.length acc.untraced)));
                     ("correct", Bool (acc.problems = []));
                     ("attempted", Num (float_of_int acc.attempted));
                     ("failed", Num (float_of_int acc.failed));
                     ("units", Str acc.workload.units);
                     ("fingerprint", Str (fingerprint acc));
                     ("problems", Arr (List.map (fun p -> Str p) acc.problems));
                     ("metrics", Obj (List.map metric_json (metrics acc ~traced)));
                   ] ))
             accs) );
    ]

let print_table accs ~traced =
  List.iter
    (fun acc ->
      Printf.printf "== %s: %d repetitions, %d/%d %s failed, fingerprint %s\n"
        acc.workload.name (List.length acc.untraced) acc.failed acc.attempted
        acc.workload.units (fingerprint acc);
      List.iter (fun p -> Printf.printf "   PROBLEM: %s\n" p) acc.problems;
      List.iter
        (fun (name, s) ->
          Printf.printf "   %-28s %14.6g  [%.6g, %.6g]  n=%d  %s\n" name s.median s.q1
            s.q3 (List.length s.values) (unit_of name))
        (metrics acc ~traced))
    accs

(* The result line [run] ends with: metrics keyed by name for one
   workload, or by workload/name when several ran. *)
let contract_line accs ~traced =
  let open Json in
  let single = match accs with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun acc ->
        List.filter_map
          (fun (name, s) ->
            if Float.is_nan s.median then None
            else
              Some
                ( (if single then name else acc.workload.name ^ "/" ^ name),
                  Obj [ ("value", Num s.median); ("unit", Str (unit_of name)) ] ))
          (metrics acc ~traced))
      accs
  in
  let sum f = List.fold_left (fun a acc -> a + f acc) 0 accs in
  Obj
    [
      ("correct", Bool (List.for_all (fun acc -> acc.problems = []) accs));
      ("attempted", Num (float_of_int (max 1 (sum (fun a -> a.attempted)))));
      ("failed", Num (float_of_int (sum (fun a -> a.failed))));
      ("metrics", Obj metrics);
    ]
