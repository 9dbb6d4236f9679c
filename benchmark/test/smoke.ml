(* Smoke test for the benchmark, at 1/100 scale.

   - Every workload runs untraced and traced, in process, and its
     outputs check out.
   - The load recomposition routes the same per-shard operation and
     key counts as [Shard.Make(T).run_shard] (and sends the same
     messages in the same number of events); the check recomposition
     reaches [Monitor.Make(T).check]'s verdicts.
   - [main.exe run], untraced and traced, reports correct results and
     prints exactly the metric names and units BENCHMARK.json lists.

   usage: smoke.exe MAIN_EXE BENCHMARK_JSON *)

open Benchkit

let scale = 0.01
let seed = 1
let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let no_problems what (o : Workloads.outcome) =
  List.iter (Printf.printf "     problem: %s\n") o.problems;
  expect what (o.problems = [] && o.failed = 0 && o.ops > 0)

let in_process (w : Workloads.t) =
  let plain =
    let job = w.setup (Tracer.off ()) ~scale ~seed in
    job.pipeline () ()
  in
  no_problems (w.name ^ " untraced") plain;
  let tr, traced = Runner.traced_run w ~scale ~seed in
  no_problems (w.name ^ " traced") traced;
  expect (w.name ^ " traced coverage >= 0.9") (Tracer.coverage tr >= 0.9);
  (plain, traced)

(* Per-shard counts straight from [run_shard]. *)
let run_shard_digest spec =
  let cfg = Workloads.load_config spec ~scale ~seed in
  let pt = Option.get (Sweep.Packed_type.find spec.Workloads.data_type) in
  let (module T : Spec.Data_type.S) = Sweep.Packed_type.modl pt in
  let module S = Shard.Make (T) in
  String.concat "\n"
    (List.init cfg.shards (fun shard ->
         let r = S.run_shard cfg ~shard in
         Workloads.shard_digest ~shard ~operations:r.operations ~keys:r.keys
           ~messages:r.messages ~events:r.events))

let names_of json key =
  List.map
    (fun m ->
      (Json.to_string_exn (Json.field "name" m), Json.to_string_exn (Json.field "unit" m)))
    (Json.to_list (Json.field key json))

(* Run the command line and check its last line against the catalogue
   in BENCHMARK.json: every workload must report every listed metric,
   with its unit, and nothing else. *)
let cli ~main ~spec ~traced =
  let label = if traced then "traced" else "untraced" in
  let cmd =
    Printf.sprintf "%s run --scale %g --reps 1 --trace %d"
      (Filename.quote main) scale (if traced then 1 else 0)
  in
  let ic = Unix.open_process_in cmd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  expect ("main.exe run (" ^ label ^ ") exits 0") (status = Unix.WEXITED 0);
  match !lines with
  | [] -> expect ("main.exe run (" ^ label ^ ") prints a result") false
  | last :: _ ->
      let result = Json.parse last in
      expect ("main.exe run (" ^ label ^ ") is correct")
        (Json.to_bool (Json.field "correct" result));
      let expected =
        List.sort compare (names_of spec (if traced then "per_layer" else "end_to_end"))
      in
      let printed = Json.to_assoc (Json.field "metrics" result) in
      List.iter
        (fun (w : Workloads.t) ->
          let prefix = w.name ^ "/" in
          let plen = String.length prefix in
          let mine =
            List.filter_map
              (fun (k, v) ->
                if String.length k > plen && String.sub k 0 plen = prefix then
                  Some
                    ( String.sub k plen (String.length k - plen),
                      Json.to_string_exn (Json.field "unit" v) )
                else None)
              printed
          in
          expect
            (Printf.sprintf "%s prints the %s metrics of BENCHMARK.json" w.name label)
            (List.sort compare mine = expected))
        Workloads.all

let () =
  let main, spec_path =
    match Sys.argv with
    | [| _; main; spec |] -> (main, spec)
    | _ ->
        prerr_endline "usage: smoke.exe MAIN_EXE BENCHMARK_JSON";
        exit 2
  in
  let spec = Json.of_file spec_path in
  let spec_workloads =
    List.map
      (fun w -> Json.to_string_exn (Json.field "name" w))
      (Json.to_list (Json.field "workloads" spec))
  in
  expect "BENCHMARK.json names every workload"
    (spec_workloads = List.map (fun (w : Workloads.t) -> w.name) Workloads.all);
  let results = List.map (fun w -> (w, in_process w)) Workloads.all in
  List.iter
    (fun ((w : Workloads.t), ((plain : Workloads.outcome), (traced : Workloads.outcome))) ->
      expect (w.name ^ " traced digest = untraced digest") (plain.digest = traced.digest))
    results;
  let traced_of name =
    snd (snd (List.find (fun ((w : Workloads.t), _) -> w.name = name) results))
  in
  expect "load-queue recomposition matches run_shard"
    ((traced_of "load-queue").digest = run_shard_digest Workloads.queue_spec);
  expect "load-register-lossy recomposition matches run_shard"
    ((traced_of "load-register-lossy").digest
    = run_shard_digest Workloads.lossy_register_spec);
  cli ~main ~spec ~traced:false;
  cli ~main ~spec ~traced:true;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
