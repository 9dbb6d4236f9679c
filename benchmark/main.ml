(* The benchmark's command line.

     main.exe run [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
                  [--reps N] [--scale F] [--out FILE]
     main.exe compare A.json B.json
     main.exe child --workload W --seed S --scale F --trace 0|1   (internal)

   [run] prints every metric by name and unit, then, as its last line,
   one JSON object with [correct], [attempted], [failed] and [metrics]
   (end-to-end metrics untraced, per-layer metrics with [--trace 1]).
   It exits 1 when any output check failed. *)

open Benchkit

let usage () =
  prerr_endline
    "usage: main.exe run [--workload W]... [--seed S] [--seconds T] [--trace \
     0|1] [--reps N] [--scale F] [--out FILE]\n\
    \       main.exe compare A.json B.json";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
  exit 2

type opts = {
  mutable workloads : Workloads.t list;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable reps : int option;
  mutable scale : float;
  mutable out : string option;
}

let parse_opts args =
  let o =
    { workloads = []; seed = 1; seconds = 0.; traced = false; reps = None; scale = 1.; out = None }
  in
  let num conv v = match conv v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match Workloads.find w with
        | Some wl -> o.workloads <- o.workloads @ [ wl ]
        | None ->
            prerr_endline ("unknown workload " ^ w);
            usage ());
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- num int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- num float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        o.traced <-
          (match v with "0" -> false | "1" -> true | _ -> usage ());
        go rest
    | "--reps" :: v :: rest ->
        o.reps <- Some (max 1 (num int_of_string_opt v));
        go rest
    | "--scale" :: v :: rest ->
        o.scale <- num float_of_string_opt v;
        if not (o.scale > 0.) then usage ();
        go rest
    | "--out" :: v :: rest ->
        o.out <- Some v;
        go rest
    | _ -> usage ()
  in
  go args;
  if o.workloads = [] then o.workloads <- Workloads.all;
  o

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "child" :: args -> (
      let o = parse_opts args in
      match o.workloads with
      | [ w ] ->
          let report =
            Runner.child_report w ~seed:o.seed ~scale:o.scale ~traced:o.traced
          in
          print_endline (Json.to_string report)
      | _ -> usage ())
  | "run" :: args ->
      let o = parse_opts args in
      (* a traced round runs two children *)
      let reps = Option.value o.reps ~default:(if o.traced then 3 else 5) in
      let accs =
        Runner.run ~workloads:o.workloads ~seed:o.seed ~scale:o.scale
          ~seconds:o.seconds ~reps ~traced:o.traced
      in
      Runner.print_table accs ~traced:o.traced;
      Option.iter
        (fun path ->
          Json.to_file path
            (Runner.result_json accs ~seed:o.seed ~scale:o.scale ~traced:o.traced))
        o.out;
      let line = Runner.contract_line accs ~traced:o.traced in
      print_endline (Json.to_string line);
      if not (Json.to_bool (Json.field "correct" line)) then exit 1
  | [ "compare"; a; b ] ->
      if not (Compare.run ~spec:"BENCHMARK.json" a b) then exit 1
  | _ -> usage ()
