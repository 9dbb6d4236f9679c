(* Quickstart: a linearizable shared register over four simulated
   processes, using the paper's algorithm.

   Run with: dune exec examples/quickstart.exe

   Walks through the whole public API: build a model, pick clock
   offsets and a delay schedule, create a cluster running Algorithm 1,
   drive a small workload, and inspect latencies plus the machine
   checked linearization. *)

module Reg = Spec.Register
module Runtime = Core.Runtime.Make (Reg)

let rat = Rat.make

let () =
  (* A system of n = 4 processes; messages take between d - u = 6 and
     d = 10 time units; clocks are optimally synchronized, so
     eps = (1 - 1/n) u = 3. *)
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 10 1) ~u:(rat 4 1) in
  Format.printf "model: %a@." Sim.Model.pp model;

  (* Adversarial-ish clock offsets within the skew bound. *)
  let offsets = [| Rat.zero; rat 3 2; rat (-3) 2; rat 1 2 |] in

  (* Random message delays drawn from [d - u, d]. *)
  let delay = Sim.Net.random_model ~seed:2026 model in

  (* The tradeoff parameter: X = 2 makes writes respond in X + eps = 5
     and reads in d - X = 8; any X in [0, d - eps] works. *)
  let x = rat 2 1 in

  (* Every process performs 8 operations, invoking the next one half a
     time unit after the previous response (closed loop).  A run is
     described by one declarative [Config.t] record and executed with
     [Runtime.run]. *)
  let report =
    Runtime.run
      (Runtime.Config.make ~model ~offsets ~delay
         ~algorithm:(Runtime.Wtlw { x })
         ~workload:
           (Runtime.Closed_loop { per_proc = 8; think = rat 1 2; seed = 7 })
         ())
  in

  Format.printf "%a@." Runtime.pp_report report;

  (* The report includes a machine-checked linearization: a legal
     sequential order of all operations consistent with real time. *)
  (match report.linearization with
  | None -> failwith "BUG: run was not linearizable"
  | Some witness ->
      let ops = Array.of_list report.operations in
      Format.printf "@.linearization witness (first 10 of %d):@."
        (Array.length witness);
      Array.iteri
        (fun i p ->
          if i < 10 then
            Format.printf "  %2d. %a@." (i + 1) Runtime.Checker.pp_op ops.(p))
        witness);

  (* Compare against the folklore baselines on the same workload. *)
  Format.printf "@.baseline comparison (worst-case latency per class):@.";
  List.iter
    (fun algorithm ->
      let r =
        Runtime.run
          (Runtime.Config.make ~model ~offsets ~delay ~algorithm
             ~workload:
               (Runtime.Closed_loop { per_proc = 8; think = rat 1 2; seed = 7 })
             ())
      in
      Format.printf "  %-24s" r.algorithm;
      List.iter
        (fun (kind, (s : Core.Metrics.summary)) ->
          Format.printf " %s=%s" (Spec.Op_kind.to_string kind)
            (Rat.to_string s.max))
        r.by_kind;
      Format.printf "@.")
    [ Runtime.Wtlw { x }; Runtime.Centralized; Runtime.Tob ];
  print_endline "\nquickstart OK"
