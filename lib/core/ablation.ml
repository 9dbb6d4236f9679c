(** Ablation harness: demonstrate that every wait in Algorithm 1 is
    load-bearing.

    Each knob removes or shortens one of the algorithm's five waiting
    periods (see {!Wtlw.timing}).  For each faulty variant the harness
    runs adversarial scenarios — skewed clocks plus delay schedules
    chosen to realize the race the wait protects against — and reports
    whether the linearizability checker catches a violation or the
    replicas diverge.

    The paper proves the default timing correct (Theorem 6); these
    ablations are the executable converse: with the wait removed, a
    concrete admissible run violates linearizability, so the wait is
    not slack that a cleverer implementation could shave off wholesale.
    (Theorems 2-5 bound how much of it is inherent.) *)

type knob =
  | Paper  (** the repaired Algorithm 1 (the library default), the control *)
  | Paper_verbatim
      (** the paper's pseudocode exactly as published, accessor wait
          [d - X]: an accessor drain can execute a queued mutator ahead
          of a smaller-timestamped one still in flight — the
          reproduction finding; see {!Wtlw.paper_timing} *)
  | No_execute_wait
      (** execute mutators as soon as they are queued ([u + eps -> 0]):
          breaks the all-replicas-same-order guarantee under skew *)
  | Short_execute_wait of Rat.t  (** a partial version of the above *)
  | No_add_wait
      (** queue own mutators immediately ([d - u -> 0]): the invoker
          runs ahead of everyone else's view of the timestamp order *)
  | Eager_accessor of Rat.t
      (** respond accessors after the given wait instead of [d - X]:
          an accessor can miss a mutator that completed before it was
          invoked *)
  | No_accessor_backdate
      (** timestamp accessors with [local_time] instead of
          [local_time - X] (an ablation of pseudocode line 2) *)

let knob_name = function
  | Paper -> "repaired (default)"
  | Paper_verbatim -> "paper-verbatim"
  | No_execute_wait -> "no-execute-wait"
  | Short_execute_wait w -> Printf.sprintf "execute-wait=%s" (Rat.to_string w)
  | No_add_wait -> "no-add-wait"
  | Eager_accessor w -> Printf.sprintf "accessor-wait=%s" (Rat.to_string w)
  | No_accessor_backdate -> "no-accessor-backdate"

let timing_of_knob (model : Sim.Model.t) ~x knob =
  let base = Wtlw.default_timing model ~x in
  match knob with
  | Paper -> base
  | Paper_verbatim -> Wtlw.paper_timing model ~x
  | No_execute_wait -> { base with execute_wait = Rat.zero }
  | Short_execute_wait w -> { base with execute_wait = w }
  | No_add_wait -> { base with add_wait = Rat.zero }
  | Eager_accessor w -> { base with accessor_wait = w }
  | No_accessor_backdate -> { base with accessor_backdate = Rat.zero }

type outcome = {
  knob : knob;
  runs : int;
  linearizable_runs : int;
  converged_runs : int;
}

let violations o = o.runs - min o.linearizable_runs o.converged_runs
let sound o = o.linearizable_runs = o.runs && o.converged_runs = o.runs

let pp_outcome ppf o =
  Format.fprintf ppf "%-22s runs=%d linearizable=%d converged=%d%s"
    (knob_name o.knob) o.runs o.linearizable_runs o.converged_runs
    (if sound o then "" else "  <- VIOLATION CAUGHT")

module Make (T : Spec.Data_type.S) = struct
  module R = Runtime.Make (T)

  (* Algorithm 1 under [timing_of], wired by [Runtime] and judged by
     Wing-Gong: [(linearizable, replicas_converged)]. *)
  let judge ~model ~x ~timing_of ~offsets ~matrix schedule =
    let r =
      R.run
        (R.Config.make ~checker:R.Wing_gong ~timing:timing_of ~model ~offsets
           ~delay:(Sim.Net.matrix matrix) ~algorithm:(R.Wtlw { x })
           ~workload:(R.Schedule schedule) ())
    in
    (Option.is_some r.linearization, r.converged = Some true)

  (* One adversarial scenario: maximal clock skew between p1 and p2,
     and a delay matrix that delivers p1's messages as fast as possible
     and p2's as slow as possible, so p1's mutators arrive long before
     p2's earlier-timestamped ones.  The schedule races mutators from
     both, then reads the object from several processes. *)
  let adversarial_run ~(model : Sim.Model.t) ~x ~knob ~seed =
    let half_eps = Rat.div_int model.eps 2 in
    let offsets =
      Array.init model.n (fun i ->
          if i = 1 then half_eps
          else if i = 2 then Rat.neg half_eps
          else Rat.zero)
    in
    let matrix = Sim.Net.uniform_matrix ~n:model.n model.d in
    (* p1's messages reach p0 fast but p3 slow; p2's the reverse: the
       two racing mutators arrive in opposite orders at p0 and p3. *)
    matrix.(1).(0) <- Sim.Model.min_delay model;
    matrix.(2).(3) <- Sim.Model.min_delay model;
    let rng = Random.State.make [| seed |] in
    let mutator_invocations proc count start spacing =
      List.init count (fun k ->
          let rec pick () =
            let inv = T.gen_invocation rng in
            if Spec.Op_kind.is_mutator (List.assoc (T.op_of inv) T.operations)
            then inv
            else pick ()
          in
          Workload.entry ~proc
            ~at:(Rat.add start (Rat.mul_int spacing k))
            (pick ()))
    in
    let accessor_invocations proc count start spacing =
      List.init count (fun k ->
          let rec pick () =
            let inv = T.gen_invocation rng in
            match List.assoc (T.op_of inv) T.operations with
            | Spec.Op_kind.Pure_accessor -> inv
            | Spec.Op_kind.Pure_mutator | Spec.Op_kind.Mixed -> pick ()
          in
          Workload.entry ~proc
            ~at:(Rat.add start (Rat.mul_int spacing k))
            (pick ()))
    in
    let spacing = Rat.add (Rat.mul_int model.d 2) Rat.one in
    (* The opening race: an accessor invoked the instant a pure
       mutator at another process acknowledges (X + eps after its
       invocation) — the accessor must observe it despite the
       mutation's broadcast still being in flight. *)
    let ack_wait = Rat.add x model.eps in
    let race =
      let pure_mutator proc at =
        let rec pick () =
          let inv = T.gen_invocation rng in
          match List.assoc (T.op_of inv) T.operations with
          | Spec.Op_kind.Pure_mutator -> inv
          | Spec.Op_kind.Pure_accessor | Spec.Op_kind.Mixed -> pick ()
        in
        Workload.entry ~proc ~at (pick ())
      in
      let accessor proc at =
        let rec pick () =
          let inv = T.gen_invocation rng in
          match List.assoc (T.op_of inv) T.operations with
          | Spec.Op_kind.Pure_accessor -> inv
          | Spec.Op_kind.Pure_mutator | Spec.Op_kind.Mixed -> pick ()
        in
        Workload.entry ~proc ~at (pick ())
      in
      [
        pure_mutator 2 Rat.zero;
        accessor 0 (Rat.add ack_wait (Rat.make 1 50));
      ]
    in
    let start = Rat.mul_int spacing 1 in
    judge ~model ~x
      ~timing_of:(fun model ~x -> timing_of_knob model ~x knob)
      ~offsets ~matrix
      (race
      @ mutator_invocations 1 4 start spacing
      @ mutator_invocations 2 4 (Rat.add start (Rat.make 1 10)) spacing
      @ accessor_invocations 0 4 (Rat.mul_int spacing 6) spacing
      @ accessor_invocations 3 4
          (Rat.add (Rat.mul_int spacing 6) (Rat.make 1 7))
          spacing)

  let evaluate ~model ~x ~seeds knob =
    let results =
      List.map (fun seed -> adversarial_run ~model ~x ~knob ~seed) seeds
    in
    {
      knob;
      runs = List.length results;
      linearizable_runs = List.length (List.filter fst results);
      converged_runs = List.length (List.filter snd results);
    }

  let default_knobs (model : Sim.Model.t) ~x =
    [
      Paper;
      Paper_verbatim;
      No_execute_wait;
      Short_execute_wait (Rat.div_int (Rat.add model.u model.eps) 4);
      No_add_wait;
      Eager_accessor (Rat.div_int (Rat.sub model.d x) 4);
      No_accessor_backdate;
    ]

  let report ~model ~x ~seeds =
    List.map (evaluate ~model ~x ~seeds) (default_knobs model ~x)

  (* The deterministic counterexample to the paper's accessor wait.
     Parameters d = 12, u = 4, eps = 3, X = 3; offsets (0, eps, 0, 0).
     Two mutators race: [slow_mutator] (smaller timestamp 197/2, issued
     at p3, delivered to p1 with delay d) and [fast_mutator] (timestamp
     99, issued at p2, delivered to p1 with delay d - u).  An accessor
     at p1 invoked at real time 100 has backdated timestamp 100 and —
     with the paper's wait d - X — drains at real time 109, executing
     the fast mutator while the slow, smaller-timestamped one is still
     in flight (it lands at 110.5).  Replica p1 then holds the two
     mutations in the opposite order from everyone else; the trailing
     accessors at p0 and p1 observe the divergence.  [accessors] probe
     the state afterwards from two processes. *)
  let counterexample_run ~timing_of ~fast_mutator ~slow_mutator ~probe =
    let rat = Rat.make in
    let model =
      Sim.Model.make ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) ~eps:(rat 3 1)
    in
    let x = rat 3 1 in
    let offsets = [| Rat.zero; rat 3 1; Rat.zero; Rat.zero |] in
    let matrix = Sim.Net.uniform_matrix ~n:4 (rat 10 1) in
    matrix.(2).(1) <- rat 8 1;
    matrix.(3).(1) <- rat 12 1;
    judge ~model ~x ~timing_of ~offsets ~matrix
      [
        Workload.entry ~proc:3 ~at:(rat 197 2) slow_mutator;
        Workload.entry ~proc:2 ~at:(rat 99 1) fast_mutator;
        Workload.entry ~proc:1 ~at:(rat 100 1) probe;
        Workload.entry ~proc:0 ~at:(rat 140 1) probe;
        Workload.entry ~proc:1 ~at:(rat 141 1) probe;
      ]
end
