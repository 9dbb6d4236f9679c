(* [compare A.json B.json]: one row per workload x end-to-end metric,
   with both sides' median and quartiles and a verdict, judged by the
   bounds in BENCHMARK.json.

   - unresolved: either side's spread (quartile distance over median)
     is wider than the bound, unless every B run reads better than
     every A run;
   - worse: B's median is worse than A's by more than the bound;
   - better: B's median is better than A's by more than both sides'
     spread (a deterministic metric has no spread, so any gain counts);
   - unchanged: otherwise.
   Deterministic metrics repeat exactly; their change is printed in
   full so byte equality can be read off the row. *)

type bound = { better_lower : bool; bound : float }

let bounds_of_spec path =
  let spec = Json.of_file path in
  List.map
    (fun m ->
      ( Json.to_string_exn (Json.field "name" m),
        {
          better_lower = Json.to_string_exn (Json.field "better" m) = "lower";
          bound = Json.to_float (Json.field "bound" m);
        } ))
    (Json.to_list (Json.field "end_to_end" spec))

(* The untraced sets of a result file: a [run --out] file is one set;
   a file with a [sets] list (results/seed.json) contributes every
   untraced set in it, pooled. *)
let untraced_sets result =
  match Json.member "sets" result with
  | Some sets ->
      List.filter (fun s -> not (Json.to_bool (Json.field "traced" s))) (Json.to_list sets)
  | None -> [ result ]

let values_of result ~workload ~metric =
  List.concat_map
    (fun set ->
      match
        Option.bind (Json.member "workloads" set) (fun ws ->
            Option.bind (Json.member workload ws) (fun w ->
                Option.bind (Json.member "metrics" w) (Json.member metric)))
      with
      | None -> []
      | Some m -> List.map Json.to_float (Json.to_list (Json.field "values" m)))
    (untraced_sets result)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let judge { better_lower; bound } a b =
  let ma = Stats.median a and mb = Stats.median b in
  (* positive = B is worse *)
  let change =
    if ma = 0. then 0.
    else (if better_lower then mb -. ma else ma -. mb) /. Float.abs ma
  in
  let noise = Float.max (Stats.spread a) (Stats.spread b) in
  let b_beats_all_a =
    List.for_all
      (fun y ->
        List.for_all (fun x -> if better_lower then y < x else y > x) a)
      b
  in
  let v =
    if noise > bound then if b_beats_all_a then Better else Unresolved
    else if change > bound then Worse
    else if change < 0. && -.change > noise then Better
    else Unchanged
  in
  (v, change)

let run ~spec a_path b_path =
  let bounds = bounds_of_spec spec in
  let a = Json.of_file a_path and b = Json.of_file b_path in
  let workloads =
    List.sort_uniq compare
      (List.concat_map
         (fun set -> List.map fst (Json.to_assoc (Json.field "workloads" set)))
         (untraced_sets a))
  in
  let bad = ref 0 in
  Printf.printf "%-20s %-19s %-34s %-34s %10s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "worse by" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, bound) ->
          match (values_of a ~workload ~metric, values_of b ~workload ~metric) with
          | (_ :: _ as va), (_ :: _ as vb) ->
              let v, change = judge bound va vb in
              if v = Worse || v = Unresolved then incr bad;
              let side vs =
                let q1, q3 = Stats.quartiles vs in
                Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median vs) q1 q3
              in
              Printf.printf "%-20s %-19s %-34s %-34s %+9.3f%% %5.0f%%  %s\n" workload
                metric (side va) (side vb) (change *. 100.) (bound.bound *. 100.)
                (verdict_name v)
          | _ ->
              incr bad;
              Printf.printf "%-20s %-19s missing on one side\n" workload metric)
        bounds)
    workloads;
  !bad = 0
