(** Shift-stress harness: the proofs' adversarial scenarios applied to
    {e our} algorithm.

    Theorems 2-5 derive contradictions for hypothetical algorithms that
    are faster than the bounds.  Algorithm 1 respects the bounds, so on
    it the very same constructions must produce {e no} contradiction:
    after shifting a run by the proof's vector, whenever the result is
    admissible it must still be linearizable (the views are unchanged,
    so each process still executes the same instances).

    Both runs go through [Core.Runtime]: R1 is the construction's
    schedule under its matrix and zero offsets.  By Theorem 1, R2 =
    shift(R1, x) is another run of Algorithm 1, under the shifted
    matrix and offsets with each invocation moved by its process's
    shift, so it is run, not re-timed.  Each report is certified by
    the runtime's one certify path. *)

module Make (T : Spec.Data_type.S) = struct
  module R = Core.Runtime.Make (T)

  type report = R.report
  type outcome = { base : report; shifted : report option }

  let linearizable (r : R.report) = Option.is_some r.linearization
  let admissible (r : R.report) = r.delays_admissible && r.skew_admissible

  let ok o =
    linearizable o.base
    &&
    match o.shifted with
    | Some r when admissible r -> linearizable r
    | Some _ | None -> true

  let run ~model ~x_param ~offsets ~matrix schedule =
    R.run
      (R.Config.make ~model ~offsets ~delay:(Sim.Net.matrix matrix)
         ~algorithm:(R.Wtlw { x = x_param })
         ~workload:(R.Schedule schedule) ())

  let negative_delay matrix =
    Array.exists (Array.exists (fun t -> Rat.sign t < 0)) matrix

  (* Run Algorithm 1 under the pair-wise uniform delays [matrix] with
     the given invocation schedule (R1), then run R1 shifted by
     [shift] (R2).  R2 runs later by [-c], [c] the least shift (or 0),
     so that no invocation moves before time 0; its operations are
     moved back by [c], into shift(R1, x)'s frame.  An R2 whose clock
     skew exceeds eps, or with a negative delay, is no run of the
     model and is not run. *)
  let run_and_shift ~(model : Sim.Model.t) ~x_param ~matrix ~shift schedule =
    let offsets = Array.make model.n Rat.zero in
    let base = run ~model ~x_param ~offsets ~matrix schedule in
    let c = Array.fold_left Rat.min Rat.zero shift in
    let lag = Array.map (fun x -> Rat.sub x c) shift in
    let offsets = Shifting.shifted_offsets offsets lag in
    let matrix = Shifting.shift_matrix matrix shift in
    let shifted =
      if (not (Sim.Model.skew_valid model offsets)) || negative_delay matrix
      then None
      else
        let r =
          run ~model ~x_param ~offsets ~matrix
            (List.map
               (fun (e : _ Core.Workload.entry) ->
                 { e with at = Rat.add e.at lag.(e.proc) })
               schedule)
        in
        Some
          {
            r with
            operations =
              List.map
                (fun (op : _ Sim.Trace.operation) ->
                  {
                    op with
                    inv_time = Rat.add op.inv_time c;
                    resp_time = Rat.add op.resp_time c;
                  })
                r.operations;
          }
    in
    { base; shifted }

  (* The context [rho] at p0, one operation every d + eps + 1, and the
     time the construction starts after it. *)
  let context ~(model : Sim.Model.t) rho =
    let spacing = Rat.add (Rat.add model.d model.eps) Rat.one in
    ( List.mapi
        (fun k inv ->
          Core.Workload.entry ~proc:0 ~at:(Rat.mul_int spacing k) inv)
        rho,
      Rat.mul_int spacing (List.length rho) )

  (* Theorem 2 scenario: a context sequence at p0, then alternating
     accessor instances at p0/p1 bracketing a mutator instance at p2,
     under uniform delays d - u/2; shifted by (u/4, -u/4, 0, ...). *)
  let theorem2 ~(model : Sim.Model.t) ~x_param ~rho ~aop ~op () =
    let aop_latency = Rat.add (Rat.sub model.d x_param) model.eps in
    let gap = Rat.add aop_latency (Rat.div_int model.u 4) in
    let rho_schedule, start = context ~model rho in
    let t = Rat.add start (Rat.div_int model.u 4) in
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
    run_and_shift ~model ~x_param
      ~matrix:(Adversary.Thm2.base_matrix model)
      ~shift:(Adversary.Thm2.shift_vector model ~case:`Even)
      (op_entry :: (rho_schedule @ aops))

  (* Theorem 3 scenario: k concurrent instances of a last-sensitive
     mutator, one per process, under the skewed-ring delay matrix;
     shifted by the proof's vector for each possible z. *)
  let theorem3 ~(model : Sim.Model.t) ~x_param ~k ~z ~rho ~instances () =
    if List.length instances <> k then
      invalid_arg "Stress.theorem3: need exactly k instances";
    let rho_schedule, start = context ~model rho in
    let t = Rat.add start (Rat.div_int model.u 2) in
    run_and_shift ~model ~x_param
      ~matrix:(Adversary.Thm3.base_matrix model ~k)
      ~shift:(Adversary.Thm3.shift_vector model ~k ~z)
      (rho_schedule
      @ List.mapi (fun i inv -> Core.Workload.entry ~proc:i ~at:t inv) instances
      )

  (* Theorem 4 scenario: two concurrent instances of a pair-free
     operation at p0 and p1 under the D1 matrix; shifted by the step-3
     vector. *)
  let theorem4 ~(model : Sim.Model.t) ~x_param ~rho ~op0 ~op1 () =
    let mm = Adversary.Thm4.m model in
    let rho_schedule, start = context ~model rho in
    let t = Rat.add start mm in
    run_and_shift ~model ~x_param
      ~matrix:(Adversary.Thm4.d1_matrix model)
      ~shift:(Adversary.Thm4.step3_shift model)
      (rho_schedule
      @ [
          Core.Workload.entry ~proc:0 ~at:t op0;
          Core.Workload.entry ~proc:1 ~at:(Rat.add t mm) op1;
        ])

  (* Theorem 5 scenario: concurrent op0/op1 then three accessors, under
     the D matrix of Figure 8; shifted by (0, m, 0, ...). *)
  let theorem5 ~(model : Sim.Model.t) ~x_param ~rho ~op0 ~op1 ~aop0 ~aop1
      ~aop2 () =
    let mm = Adversary.Thm5.m model in
    let rho_schedule, start = context ~model rho in
    let t = Rat.add start mm in
    (* t_max: a safe upper bound on when both op0 and op1 finished. *)
    let t_max = Rat.add t (Rat.add model.d model.eps) in
    run_and_shift ~model ~x_param
      ~matrix:(Adversary.Thm5.d_matrix model)
      ~shift:(Adversary.Thm5.shift model)
      (rho_schedule
      @ [
          Core.Workload.entry ~proc:0 ~at:t op0;
          Core.Workload.entry ~proc:1 ~at:t op1;
          Core.Workload.entry ~proc:0 ~at:t_max aop0;
          Core.Workload.entry ~proc:1 ~at:t_max aop1;
          Core.Workload.entry ~proc:2 ~at:(Rat.add t_max mm) aop2;
        ])
end
