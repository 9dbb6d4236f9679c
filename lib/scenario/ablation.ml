(* Ablation legs as scenarios: every wait in Algorithm 1 is
   load-bearing.

   Each leg is one adversarial queue run under one [Core.Ablation.knob],
   plain scenario data lowered by [Exec] like every other run, so a leg
   that catches a violation can be saved, shrunk and re-run as a file.
   The paper proves the default timing correct (Theorem 6); these legs
   are the executable converse. *)

open Types
module Q = Spec.Fifo_queue

type outcome = {
  knob : Core.Ablation.knob;
  runs : int;
  linearizable_runs : int;
  converged_runs : int;
}

let violations o = o.runs - min o.linearizable_runs o.converged_runs
let sound o = o.linearizable_runs = o.runs && o.converged_runs = o.runs

let pp_outcome ppf o =
  Format.fprintf ppf "%-22s runs=%d linearizable=%d converged=%d%s"
    (Core.Ablation.knob_name o.knob)
    o.runs o.linearizable_runs o.converged_runs
    (if sound o then "" else "  <- VIOLATION CAUGHT")

(* The reference [Exec.Run(Spec.Fifo_queue).resolve_op] resolves to
   [inv]: [Tagged enqueue t] is [Enqueue (t + 1)]. *)
let op_ref_of : Q.invocation -> op_ref = function
  | Q.Enqueue v -> Tagged { op = "enqueue"; tag = v - 1 }
  | Q.Dequeue -> Sample { op = "dequeue"; index = 0 }
  | Q.Peek -> Sample { op = "peek"; index = 0 }

(* Draw until the invocation's class satisfies [pred]. *)
let rec draw rng pred =
  let inv = Q.gen_invocation rng in
  if pred (List.assoc (Q.op_of inv) Q.operations) then inv else draw rng pred

(* Maximal clock skew between p1 and p2, and a delay matrix that
   delivers p1's messages to p0 fast but to p3 slow and p2's the
   reverse, so racing mutators from the two arrive in opposite orders
   at p0 and p3.  The schedule opens with an accessor invoked just
   after a pure mutator at another process acknowledges (X + eps after
   its invocation) — it must observe the mutation despite its broadcast
   still being in flight — then races mutators from p1 and p2 and
   reads the object from p0 and p3. *)
let scenario ~(model : Sim.Model.t) ~x ~seed knob =
  let half_eps = Rat.div_int model.eps 2 in
  let offsets =
    Array.init model.n (fun i ->
        if i = 1 then half_eps
        else if i = 2 then Rat.neg half_eps
        else Rat.zero)
  in
  let matrix = Sim.Net.uniform_matrix ~n:model.n model.d in
  matrix.(1).(0) <- Sim.Model.min_delay model;
  matrix.(2).(3) <- Sim.Model.min_delay model;
  let rng = Random.State.make [| seed |] in
  let spacing = Rat.add (Rat.mul_int model.d 2) Rat.one in
  let entry pred proc at = { proc; at; op = op_ref_of (draw rng pred) } in
  let entries pred proc start =
    List.init 4 (fun k ->
        entry pred proc (Rat.add start (Rat.mul_int spacing k)))
  in
  let mutator = Spec.Op_kind.is_mutator in
  let accessor k = k = Spec.Op_kind.Pure_accessor in
  let pure_mutator k = k = Spec.Op_kind.Pure_mutator in
  (* The draws run in this order; the schedule lists them differently. *)
  let race_accessor =
    entry accessor 0 (Rat.add (Rat.add x model.eps) (Rat.make 1 50))
  in
  let race_mutator = entry pure_mutator 2 Rat.zero in
  let late = Rat.mul_int spacing 6 in
  let reads3 = entries accessor 3 (Rat.add late (Rat.make 1 7)) in
  let reads0 = entries accessor 0 late in
  let writes2 = entries mutator 2 (Rat.add spacing (Rat.make 1 10)) in
  let writes1 = entries mutator 1 spacing in
  make
    ~name:
      (Printf.sprintf "ablation;knob=%s;seed=%d"
         (Core.Ablation.knob_name knob)
         seed)
    ~dt:"queue" ~model ~offsets ~delays:(Matrix matrix)
    ~checker:Core.Runtime.Wing_gong
    ~algorithm:(Wtlw { x; knob })
    ~workload:
      (Explicit
         ((race_mutator :: race_accessor :: writes1)
         @ writes2 @ reads0 @ reads3))
    ~seed ()

(* (linearizable, replicas converged) of one run. *)
let verdict (o : Exec.outcome) = (o.linearizable, o.converged = Some true)

let evaluate ~model ~x ~seeds knob =
  let results =
    List.map
      (fun seed -> verdict (Packed_type.run (scenario ~model ~x ~seed knob)))
      seeds
  in
  {
    knob;
    runs = List.length results;
    linearizable_runs = List.length (List.filter fst results);
    converged_runs = List.length (List.filter snd results);
  }

let default_knobs (model : Sim.Model.t) ~x =
  Core.Ablation.
    [
      Paper;
      Paper_verbatim;
      No_execute_wait;
      Short_execute_wait (Rat.div_int (Rat.add model.u model.eps) 4);
      No_add_wait;
      Eager_accessor (Rat.div_int (Rat.sub model.d x) 4);
      No_accessor_backdate;
    ]

(* The schedule races processes 1 and 2 and reads from 0 and 3.  The
   repaired control's timing is only sound for an X in [0, d - eps]:
   outside it, a caught violation would be the X's, not a knob's. *)
let report ~(model : Sim.Model.t) ~x ~seeds =
  if model.n < 4 then
    Error
      (Printf.sprintf
         "ablation legs need n >= 4 processes (p0 to p3); got n = %d" model.n)
  else
    Result.map
      (fun () -> List.map (evaluate ~model ~x ~seeds) (default_knobs model ~x))
      (Core.Wtlw.check_x model x)

let finding knob =
  verdict
    (Packed_type.run (with_knob Builtin.ablation_counterexample knob))
