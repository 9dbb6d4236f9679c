(* Named scenarios shipped with the repository.

   The two ablation counterexamples encode the reproduction finding
   (EXPERIMENTS.md §Finding; [repro finding] runs the queue one through
   [Ablation.finding]) as scenario data: under the paper's verbatim
   accessor wait [d - X] the schedule is not linearizable and the
   replicas diverge; flipping the knob to the repaired timing
   ([Types.with_knob]) certifies the identical schedule.  They are also
   the seeded failures the shrinker is tested against. *)

open Types

let ablation_model =
  Sim.Model.make ~n:4 ~d:(Rat.of_int 12) ~u:(Rat.of_int 4)
    ~eps:(Rat.of_int 3)

(* Uniform 10 (= d - u/2, the uniform point) except: fast mutator edge
   p2 -> p1 at the minimum-ish 8, slow mutator edge p3 -> p1 at the
   maximum 12. *)
let ablation_matrix () =
  let m = Sim.Net.uniform_matrix ~n:4 (uniform_point ablation_model) in
  m.(2).(1) <- Rat.of_int 8;
  m.(3).(1) <- Rat.of_int 12;
  m

(* The five-entry schedule of the hand-written counterexample: a slow
   small-timestamped mutator from p3, a fast larger-timestamped mutator
   from p2, and probes at p1 (mid-race), p0 and p1 (after the dust
   settles). *)
let ablation_entries ~mutator ~probe =
  [
    { proc = 3; at = Rat.make 197 2; op = Tagged { op = mutator; tag = 65 } };
    { proc = 2; at = Rat.of_int 99; op = Tagged { op = mutator; tag = 54 } };
    { proc = 1; at = Rat.of_int 100; op = Sample { op = probe; index = 0 } };
    { proc = 0; at = Rat.of_int 140; op = Sample { op = probe; index = 0 } };
    { proc = 1; at = Rat.of_int 141; op = Sample { op = probe; index = 0 } };
  ]

let ablation ~name ~dt ~mutator ~probe =
  make ~name ~dt ~model:ablation_model
    ~offsets:[| Rat.zero; Rat.of_int 3; Rat.zero; Rat.zero |]
    ~delays:(Matrix (ablation_matrix ()))
    ~algorithm:
      (Wtlw { x = Rat.of_int 3; knob = Core.Ablation.Paper_verbatim })
    ~workload:(Explicit (ablation_entries ~mutator ~probe))
    ~seed:1 ~expect:Certify ~predicate:True ()

let ablation_counterexample =
  ablation ~name:"ablation-counterexample" ~dt:"queue" ~mutator:"enqueue"
    ~probe:"peek"

let ablation_register =
  ablation ~name:"ablation-register" ~dt:"register" ~mutator:"write"
    ~probe:"read"

let all = [ ablation_counterexample; ablation_register ]
let find name = List.find_opt (fun s -> String.equal s.name name) all
