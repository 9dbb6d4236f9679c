type expectation = Detect | Recover

let expectation_name = function Detect -> "detect" | Recover -> "recover"

type case = { label : string; plan : Sim.Fault.plan; expectation : expectation }

(* The standard nemesis suite.  Probabilities are aggressive on purpose
   — a cell's certification never depends on a probabilistic fault
   actually firing (Recover cells are judged on the recovered leg,
   Detect cells on deterministic damage), but the raw verdicts are more
   interesting when the network is genuinely hostile. *)
let default_cases ~seed (model : Sim.Model.t) =
  (* margin > u guarantees an upward spike leaves [d - u, d]. *)
  let spike_margin = Rat.add model.u (Rat.div_int model.d 4) in
  let skew_offset = Rat.add model.eps (Rat.div_int model.d 4) in
  [
    {
      label = "drop";
      plan = Sim.Fault.plan ~seed [ Sim.Fault.drops 0.4 ];
      expectation = Recover;
    };
    {
      label = "duplicate";
      plan = Sim.Fault.plan ~seed [ Sim.Fault.duplicates 0.4 ];
      expectation = Recover;
    };
    {
      label = "spike";
      plan = Sim.Fault.plan ~seed [ Sim.Fault.spikes ~margin:spike_margin 0.3 ];
      expectation = Recover;
    };
    {
      label = "storm";
      plan =
        Sim.Fault.plan ~seed
          [
            Sim.Fault.drops 0.25;
            Sim.Fault.duplicates 0.25;
            Sim.Fault.spikes ~margin:spike_margin 0.2;
          ];
      expectation = Recover;
    };
    {
      label = "crash";
      (* Crash at [d]: early enough that the crashed process still has
         operations in flight for any closed-loop workload, so at least
         one invocation deterministically stays pending. *)
      plan = Sim.Fault.plan ~seed [ Sim.Fault.crash ~proc:1 ~at:model.d ];
      expectation = Detect;
    };
    {
      label = "skew";
      plan = Sim.Fault.plan ~seed [ Sim.Fault.skew ~proc:0 ~offset:skew_offset ];
      expectation = Recover;
    };
  ]

type cell = {
  data_type : string;
  case : string;
  plan : string;
  expectation : expectation;
  raw : Exec.outcome;
  recovered : Exec.outcome;
  certified : bool;
}

let all_certified cells = cells <> [] && List.for_all (fun c -> c.certified) cells

let pp_leg ppf (l : Exec.outcome) =
  match l.diagnostic with
  | Some msg -> Format.fprintf ppf "aborted (%s)" msg
  | None ->
      Format.fprintf ppf
        "%s (pending=%d delays=%b skew=%b lin=%b%s%s)"
        (if l.ok then "ok" else "flagged")
        l.pending l.delays_admissible l.skew_admissible l.linearizable
        (if l.truncated then " truncated" else "")
        (if l.retransmits > 0 then
           Printf.sprintf " retransmits=%d" l.retransmits
         else "")

let pp_cell ppf c =
  Format.fprintf ppf "@[<v2>%s / %-9s [%s] %s@,raw:       %a@,recovered: %a@]"
    c.data_type c.case (expectation_name c.expectation)
    (if c.certified then "CERTIFIED" else "FAILED")
    pp_leg c.raw pp_leg c.recovered

let pp_matrix ppf cells =
  Format.fprintf ppf "@[<v>";
  List.iter (fun c -> Format.fprintf ppf "%a@," pp_cell c) cells;
  Format.fprintf ppf "%d/%d cells certified@]"
    (List.length (List.filter (fun c -> c.certified) cells))
    (List.length cells)

let json_of_leg (l : Exec.outcome) =
  let open Core.Json in
  let f = l.fault_counts in
  let faults =
    Object
      [ ("dropped", Int f.dropped); ("duplicated", Int f.duplicated);
        ("spiked", Int f.spiked); ("crashed", Int f.crashed);
        ("skewed", Int f.skewed) ]
  in
  Object
    ([ ("ok", Bool l.ok); ("flagged", Bool (not l.ok));
       ("pending", Int l.pending);
       ("delays_admissible", Bool l.delays_admissible);
       ("skew_admissible", Bool l.skew_admissible);
       ("linearizable", Bool l.linearizable); ("truncated", Bool l.truncated);
       ("faults", faults); ("retransmits", Int l.retransmits);
       ("exhausted", Int l.exhausted) ]
    @ optional "error" (fun m -> String m) l.diagnostic)

let to_json cells =
  let open Core.Json in
  let cell c =
    Object
      [ ("type", String c.data_type); ("case", String c.case);
        ("plan", String c.plan);
        ("expectation", String (expectation_name c.expectation));
        ("raw", json_of_leg c.raw); ("recovered", json_of_leg c.recovered);
        ("certified", Bool c.certified) ]
  in
  Object
    [ ("matrix", List (List.map cell cells));
      ("cells", Int (List.length cells));
      ("certified", Bool (all_certified cells)) ]

(* One leg of a cell as a scenario: the algorithm either straight on
   the faulty network ([recovered = false]) or over the reliable channel
   judged against the inflated model ([recovered = true]).  Both legs of
   a cell share the workload, the delay schedule and the fault plan. *)
let scenario ~(model : Sim.Model.t) ~x ~seed ~recovered dt (case : case) =
  let leg = if recovered then "recovered" else "raw" in
  Types.make
    ~name:
      (Printf.sprintf "faults;type=%s;case=%s;leg=%s" (Packed_type.key dt)
         case.label leg)
    ~dt:(Packed_type.key dt) ~model ~faults:case.plan ~reliable:recovered
    ~algorithm:(Types.Wtlw { x; knob = Core.Ablation.Paper })
    ~workload:(Types.Closed_loop { per_proc = 3; think = Rat.make 1 2 })
    ~seed ~max_events:500_000
    ~expect:
      (if recovered && case.expectation = Recover then Types.Certify
       else Types.Violate)
    ()

(* Both legs of a cell, each scenario run by [leg], judged by the
   case's expectation: a [Recover] cell by its recovered leg, a
   [Detect] cell (crash-stop) by its raw leg being flagged.  An
   injected fault that breaks a protocol invariant outright makes the
   run abort with a named diagnostic; that too is detection. *)
let judge ~model ~x ~seed dt (case : case) leg =
  let leg recovered = leg (scenario ~model ~x ~seed ~recovered dt case) in
  let raw = leg false and recovered = leg true in
  {
    data_type = Packed_type.spec_name dt;
    case = case.label;
    plan = Sim.Fault.describe case.plan;
    expectation = case.expectation;
    raw;
    recovered;
    certified =
      (match case.expectation with
      | Recover -> recovered.ok
      | Detect -> not raw.ok);
  }

let run_cell ~model ~x ~seed dt case =
  judge ~model ~x ~seed dt case Packed_type.run
