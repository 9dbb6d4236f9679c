(* Feed a (typically shrunk) failing scenario's delay matrix into the
   [Bounds.Adversary] machinery: rerun the scenario with the repaired
   timing so the observed latencies describe a sound execution under
   the candidate matrix, then compare each operation class's worst
   latency against the paper's lower and upper bounds.  When some class
   reaches its lower bound under an admissible matrix, the shrinker has
   rediscovered a bound-tightness witness — an adversarial execution as
   strong as the proofs' hand-built shifted runs. *)

open Types

type report = {
  scenario : string;
  x : Rat.t;
  exec : Exec.outcome;  (** the repaired rerun the latencies came from *)
  bounds : Bounds.Adversary.Probe.report;
}

let witnesses_tightness r =
  Bounds.Adversary.Probe.witnesses_tightness r.bounds

(* Only scenarios with a pinned matrix can be probed (the symbolic
   delay families have no single matrix to assess), and only a Wtlw
   scenario names an X to judge the bound table at. *)
let probe (s : t) : (report, string) result =
  match (s.delays, s.algorithm) with
  | (Random_delays | Max_delays | Min_delays), _ ->
      Error "probe needs a pinned delay matrix (shrink to one first)"
  | _, (Centralized | Tob) ->
      Error "probe assesses Algorithm 1 bounds; scenario runs a baseline"
  | Matrix matrix, Wtlw { x; _ } ->
      let repaired =
        {
          (with_knob s Core.Ablation.Paper) with
          expect = Certify;
          predicate = True;
        }
      in
      let exec = Packed_type.run repaired in
      (match exec.Exec.diagnostic with
      | Some d -> Error ("repaired rerun aborted: " ^ d)
      | None ->
          let bounds =
            Bounds.Adversary.Probe.assess ~model:s.model ~x ~matrix
              ~observed:exec.Exec.by_kind
          in
          Ok { scenario = s.name; x; exec; bounds })

let pp ppf (r : report) =
  Format.fprintf ppf
    "@[<v>bound probe for %s (X = %s), from the repaired rerun:@,%a@]"
    r.scenario (Rat.to_string r.x) Bounds.Adversary.Probe.pp r.bounds
