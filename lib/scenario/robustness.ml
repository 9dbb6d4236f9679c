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

type leg = {
  ok : bool;
  flagged : bool;
  pending : int;
  delays_admissible : bool;
  skew_admissible : bool;
  linearizable : bool;
  truncated : bool;
  faults : Sim.Trace.fault_counts;
  error : string option;
  retransmits : int;
  exhausted : int;
}

type cell = {
  data_type : string;
  case : string;
  plan : string;
  expectation : expectation;
  raw : leg;
  recovered : leg;
  certified : bool;
}

let all_certified cells = cells <> [] && List.for_all (fun c -> c.certified) cells

let pp_leg ppf l =
  match l.error with
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

(* An injected fault can break a protocol invariant outright instead
   of merely corrupting the outcome — e.g. a duplicated reply in the
   centralized algorithm answers an operation that is no longer
   pending and the engine raises.  That too is detection. *)
let aborted_leg msg =
  {
    ok = false;
    flagged = true;
    pending = 0;
    delays_admissible = false;
    skew_admissible = false;
    linearizable = false;
    truncated = false;
    faults = Sim.Trace.no_faults;
    error = Some msg;
    retransmits = 0;
    exhausted = 0;
  }

let cell_of_legs ~data_type (case : case) ~raw ~recovered =
  let certified =
    match case.expectation with
    | Recover -> recovered.ok
    | Detect -> raw.flagged
  in
  {
    data_type;
    case = case.label;
    plan = Sim.Fault.describe case.plan;
    expectation = case.expectation;
    raw;
    recovered;
    certified;
  }

let pp_json_leg ppf l =
  Format.fprintf ppf
    "{\"ok\":%b,\"flagged\":%b,\"pending\":%d,\"delays_admissible\":%b,\"skew_admissible\":%b,\"linearizable\":%b,\"truncated\":%b,\"faults\":{\"dropped\":%d,\"duplicated\":%d,\"spiked\":%d,\"crashed\":%d,\"skewed\":%d},\"retransmits\":%d,\"exhausted\":%d%s}"
    l.ok l.flagged l.pending l.delays_admissible l.skew_admissible
    l.linearizable l.truncated l.faults.dropped l.faults.duplicated
    l.faults.spiked l.faults.crashed l.faults.skewed l.retransmits l.exhausted
    (match l.error with
    | None -> ""
    | Some msg -> ",\"error\":" ^ Core.Json.quote msg)

let pp_json ppf cells =
  Format.fprintf ppf "{\"matrix\":[";
  List.iteri
    (fun i c ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf
        "{\"type\":%s,\"case\":%s,\"plan\":%s,\"expectation\":\"%s\",\"raw\":%a,\"recovered\":%a,\"certified\":%b}"
        (Core.Json.quote c.data_type) (Core.Json.quote c.case)
        (Core.Json.quote c.plan)
        (expectation_name c.expectation)
        pp_json_leg c.raw pp_json_leg c.recovered c.certified)
    cells;
  Format.fprintf ppf "],\"cells\":%d,\"certified\":%b}" (List.length cells)
    (all_certified cells)

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

let run_cell ~model ~x ~seed dt (case : case) =
  let (module E : Packed_type.RUNNER) = Packed_type.runner dt in
  let leg recovered =
    match E.config_of (scenario ~model ~x ~seed ~recovered dt case) with
    | Error msg -> aborted_leg msg
    | Ok cfg -> (
        match E.R.run cfg with
        | exception Invalid_argument msg -> aborted_leg msg
        | exception Assert_failure _ -> aborted_leg "assertion failure"
        | r ->
            let ok = E.R.ok r in
            let stats f =
              match r.channel with None -> 0 | Some c -> f c.stats
            in
            {
              ok;
              flagged = not ok;
              pending = r.pending;
              delays_admissible = r.delays_admissible;
              skew_admissible = r.skew_admissible;
              linearizable = Option.is_some r.linearization;
              truncated = r.truncated;
              faults = r.faults;
              error = None;
              retransmits = stats (fun s -> s.Core.Reliable.retransmits);
              exhausted = stats (fun s -> s.Core.Reliable.exhausted);
            })
  in
  cell_of_legs ~data_type:E.T.name case ~raw:(leg false) ~recovered:(leg true)
