(** Shift-stress harness: the proofs' adversarial scenarios applied to
    {e our} algorithm.

    Theorems 2-5 derive contradictions for hypothetical algorithms that
    are faster than the bounds.  Algorithm 1 respects the bounds, so on
    it the very same constructions must produce {e no} contradiction:
    after shifting a run by the proof's vector, whenever the result is
    admissible it must still be linearizable (the views are unchanged,
    so each process still executes the same instances).  This harness
    runs a scenario, shifts the trace, checks admissibility of the
    shifted run, and re-checks linearizability of the shifted history —
    a strong end-to-end exercise of Theorem 1's view-preservation
    property on real traces. *)

module Make (T : Spec.Data_type.S) = struct
  module Algo = Core.Wtlw.Make (T)
  module Checker = Lin.Checker.Make (T)

  type trace = (Algo.msg, T.invocation, T.response) Sim.Trace.t

  type outcome = {
    base : trace;
    shifted : trace;
    base_linearizable : bool;
    shifted_admissible : bool;
    shifted_linearizable : bool;
    operations : int;
  }

  (* Run the algorithm under pair-wise uniform delays [matrix] with the
     given invocation schedule, then shift by [shift]. *)
  let run_and_shift ~(model : Sim.Model.t) ~x_param ~offsets ~matrix ~shift
      schedule =
    let cluster =
      Algo.create ~model ~x:x_param ~offsets ~delay:(Sim.Net.matrix matrix) ()
    in
    List.iter
      (fun { Core.Workload.proc; at; inv } ->
        Sim.Engine.schedule_invoke cluster.engine ~at ~proc inv)
      (Core.Workload.sort_schedule schedule);
    Sim.Engine.run cluster.engine;
    let trace = Sim.Engine.trace cluster.engine in
    let shifted = Shifting.shift_trace trace shift in
    let shifted_offsets = Shifting.shifted_offsets offsets shift in
    {
      base = trace;
      shifted;
      base_linearizable = Checker.trace_linearizable trace;
      shifted_admissible =
        Sim.Trace.delays_admissible model shifted
        && Shifting.skew_admissible model shifted_offsets;
      shifted_linearizable = Checker.trace_linearizable shifted;
      operations = Sim.Trace.operation_count trace;
    }

  let ok outcome =
    outcome.base_linearizable
    && ((not outcome.shifted_admissible) || outcome.shifted_linearizable)

  (* Theorem 2 scenario: a context sequence at p0, then alternating
     accessor instances at p0/p1 bracketing a mutator instance at p2,
     under uniform delays d - u/2; shifted by (u/4, -u/4, 0, ...). *)
  let theorem2 ~(model : Sim.Model.t) ~x_param ~rho ~aop ~op () =
    let matrix = Adversary.Thm2.base_matrix model in
    let shift = Adversary.Thm2.shift_vector model ~case:`Even in
    let offsets = Array.make model.n Rat.zero in
    let aop_latency = Rat.add (Rat.sub model.d x_param) model.eps in
    let gap = Rat.add aop_latency (Rat.div_int model.u 4) in
    let rho_spacing = Rat.add (Rat.add model.d model.eps) Rat.one in
    let rho_schedule =
      List.mapi
        (fun k inv ->
          Core.Workload.entry ~proc:0 ~at:(Rat.mul_int rho_spacing k) inv)
        rho
    in
    let t =
      Rat.add (Rat.mul_int rho_spacing (List.length rho)) (Rat.div_int model.u 4)
    in
    (* Alternating accessors at p0 and p1; the mutator at p2 in the
       middle of the accessor train. *)
    let aops =
      List.init 6 (fun i ->
          Core.Workload.entry ~proc:(i mod 2)
            ~at:(Rat.add t (Rat.mul_int gap i))
            aop)
    in
    let op_entry =
      Core.Workload.entry ~proc:2
        ~at:(Rat.add t (Rat.mul_int gap 3))
        op
    in
    run_and_shift ~model ~x_param ~offsets ~matrix ~shift
      (op_entry :: (rho_schedule @ aops))

  (* Theorem 3 scenario: k concurrent instances of a last-sensitive
     mutator, one per process, under the skewed-ring delay matrix;
     shifted by the proof's vector for each possible z. *)
  let theorem3 ~(model : Sim.Model.t) ~x_param ~k ~z ~rho ~instances () =
    if List.length instances <> k then
      invalid_arg "Stress.theorem3: need exactly k instances";
    let matrix = Adversary.Thm3.base_matrix model ~k in
    let shift = Adversary.Thm3.shift_vector model ~k ~z in
    let offsets = Array.make model.n Rat.zero in
    let rho_spacing = Rat.add (Rat.add model.d model.eps) Rat.one in
    let rho_schedule =
      List.mapi
        (fun i inv ->
          Core.Workload.entry ~proc:0 ~at:(Rat.mul_int rho_spacing i) inv)
        rho
    in
    let t =
      Rat.add (Rat.mul_int rho_spacing (List.length rho)) (Rat.div_int model.u 2)
    in
    let concurrent =
      List.mapi
        (fun i inv -> Core.Workload.entry ~proc:i ~at:t inv)
        instances
    in
    run_and_shift ~model ~x_param ~offsets ~matrix ~shift
      (rho_schedule @ concurrent)

  (* Theorem 4 scenario: two concurrent instances of a pair-free
     operation at p0 and p1 under the D1 matrix; shifted by the step-3
     vector. *)
  let theorem4 ~(model : Sim.Model.t) ~x_param ~rho ~op0 ~op1 () =
    let matrix = Adversary.Thm4.d1_matrix model in
    let shift = Adversary.Thm4.step3_shift model in
    let offsets = Array.make model.n Rat.zero in
    let mm = Adversary.Thm4.m model in
    let rho_spacing = Rat.add (Rat.add model.d model.eps) Rat.one in
    let rho_schedule =
      List.mapi
        (fun i inv ->
          Core.Workload.entry ~proc:0 ~at:(Rat.mul_int rho_spacing i) inv)
        rho
    in
    let t = Rat.add (Rat.mul_int rho_spacing (List.length rho)) mm in
    run_and_shift ~model ~x_param ~offsets ~matrix ~shift
      (rho_schedule
      @ [
          Core.Workload.entry ~proc:0 ~at:t op0;
          Core.Workload.entry ~proc:1 ~at:(Rat.add t mm) op1;
        ])

  (* Theorem 5 scenario: concurrent op0/op1 then three accessors, under
     the D matrix of Figure 8; shifted by (0, m, 0, ...). *)
  let theorem5 ~(model : Sim.Model.t) ~x_param ~rho ~op0 ~op1 ~aop0 ~aop1
      ~aop2 () =
    let matrix = Adversary.Thm5.d_matrix model in
    let shift = Adversary.Thm5.shift model in
    let offsets = Array.make model.n Rat.zero in
    let mm = Adversary.Thm5.m model in
    let rho_spacing = Rat.add (Rat.add model.d model.eps) Rat.one in
    let rho_schedule =
      List.mapi
        (fun i inv ->
          Core.Workload.entry ~proc:0 ~at:(Rat.mul_int rho_spacing i) inv)
        rho
    in
    let t = Rat.add (Rat.mul_int rho_spacing (List.length rho)) mm in
    (* t_max: a safe upper bound on when both op0 and op1 finished. *)
    let t_max = Rat.add t (Rat.add model.d model.eps) in
    run_and_shift ~model ~x_param ~offsets ~matrix ~shift
      (rho_schedule
      @ [
          Core.Workload.entry ~proc:0 ~at:t op0;
          Core.Workload.entry ~proc:1 ~at:t op1;
          Core.Workload.entry ~proc:0 ~at:t_max aop0;
          Core.Workload.entry ~proc:1 ~at:t_max aop1;
          Core.Workload.entry ~proc:2 ~at:(Rat.add t_max mm) aop2;
        ])
end
