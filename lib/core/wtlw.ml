(** Algorithm 1 of the paper — the Wang–Talmage–Lee–Welch linearizable
    implementation of an arbitrary data type (§5.1).

    Operations are partitioned by their declared {!Spec.Op_kind.t}:

    - {b AOP} (pure accessors) respond [d - X] after invocation.  On
      invocation the process sets a single timer; no messages are sent.
      The operation's timestamp is {e backdated} by [X] (line 2 of the
      pseudocode) so that accessors serialize correctly against
      mutators despite responding early.
    - {b MOP} (pure mutators) respond [X + eps] after invocation
      (timer), independently of when the mutation is applied to the
      replicas.
    - {b OOP} (mixed operations) respond when they execute at their
      invoking process, [d + eps] after invocation.

    Every mutator (MOP or OOP) is broadcast on invocation.  A process
    adds a mutator to its [To_Execute] priority queue when the message
    arrives — or, at the invoking process, when a local timer
    simulating the minimum message delay [d - u] expires — and then
    waits a further [u + eps] before executing it, which guarantees no
    smaller-timestamped mutator can still be in flight.  All processes
    therefore apply all mutators in the same (timestamp) order, and the
    linearization of Construction 1 in the paper is realized.

    The parameter [X] in [[0, d - eps]] trades accessor speed against
    mutator speed (following Chaudhuri–Gawlick–Lynch). *)

(* The five waiting periods Algorithm 1 is built from.  The default
   values below are exactly the paper's; [Runtime.Config.timing]
   accepts altered values so that the ablation legs can demonstrate
   that each wait is load-bearing (see [Core.Ablation] for the knobs,
   [Scenario.Ablation] for the legs). *)
type timing = {
  accessor_wait : Rat.t;  (** respond a pure accessor after this; paper: d - X *)
  accessor_backdate : Rat.t;  (** subtract from accessor timestamps; paper: X *)
  mutator_ack_wait : Rat.t;  (** acknowledge a pure mutator after; paper: X + eps *)
  add_wait : Rat.t;
      (** queue own mutators after (simulated minimum delay); paper: d - u *)
  execute_wait : Rat.t;  (** execute after queueing; paper: u + eps *)
}

(* The paper's pseudocode verbatim: accessors respond d - X after
   invocation.  REPRODUCTION FINDING: this wait is an [eps] too short.
   The accessor drain (pseudocode lines 4-8) executes every queued
   mutator with timestamp at most [local - X], but a mutator with a
   {e smaller} timestamp issued at a process whose clock runs [eps]
   ahead can still be in flight at that moment (it arrives only by
   local time [ts + d + eps]).  The accessor's replica then applies the
   two mutators in the opposite order from every other replica, and
   later accessors observe the divergence: a machine-checked
   non-linearizable admissible run (see [Core.Ablation.Paper_verbatim]
   and the deterministic counterexample
   [Scenario.Builtin.ablation_counterexample], or
   EXPERIMENTS.md for the full scenario).  Lemma 5 of the paper proves
   same-order execution only for the [u + eps] execute timers and
   overlooks the early executions at line 6. *)
let paper_timing (model : Sim.Model.t) ~x =
  {
    accessor_wait = Rat.sub model.d x;
    accessor_backdate = x;
    mutator_ack_wait = Rat.add x model.eps;
    add_wait = Rat.sub model.d model.u;
    execute_wait = Rat.add model.u model.eps;
  }

(* Lemma 4's range for X: outside [0, d - eps] one of the waits is
   negative.  The one test of an X against that range; every refusal
   of such an X carries this text.  An eps above d leaves no X at all. *)
let check_x (model : Sim.Model.t) x =
  let hi = Rat.sub model.d model.eps in
  if Rat.in_range ~lo:Rat.zero ~hi x then Ok ()
  else if Rat.sign hi < 0 then
    Error
      (Printf.sprintf
         "X = %s: eps = %s exceeds d = %s, so no X lies in [0, d - eps]"
         (Rat.to_string x) (Rat.to_string model.eps) (Rat.to_string model.d))
  else
    Error
      (Printf.sprintf "X = %s lies outside [0, d - eps] = [0, %s]"
         (Rat.to_string x) (Rat.to_string hi))

(* The repaired timing: accessors wait [d - X + eps].  By that time
   every mutator with timestamp at most the accessor's backdated
   timestamp [local - X] has arrived (a timestamp-[ts] mutator arrives
   by local time [ts + d + eps]), so the drain always applies a
   gap-free timestamp prefix and all replicas execute mutators in the
   same order; and every mutator that responded before the accessor's
   invocation has a timestamp at most [local - X], so the real-time
   order is respected.  The repair costs the accessor exactly [eps]
   over the paper's claimed bound (the alternative repair — making
   pure mutators wait [X + 2 eps] instead — shifts the same [eps] onto
   mutators). *)
let default_timing (model : Sim.Model.t) ~x =
  {
    (paper_timing model ~x) with
    accessor_wait = Rat.add (Rat.sub model.d x) model.eps;
  }

module Make (T : Spec.Data_type.S) = struct
  module Sem = Spec.Data_type.Semantics (T)
  module Replica = Replica.Make (T)

  (* Messages and timer tags are one type.  A mutator is broadcast as
     one [Op] block, and that block is also the tag of the execute
     timer set wherever a copy of it is queued: a copy costs a timer
     and a heap slot, not a block of its own.  [Add] carries the
     invoker's own [Op] to its queue after the simulated minimum
     delay. *)
  type event =
    | Op of { inv : T.invocation; ts : Timestamp.t }
    | Respond_aop of { inv : T.invocation; ts : Timestamp.t }
    | Respond_ack of T.invocation
    | Add of event

  type msg = event
  type tag = event

  type pstate = {
    to_execute : T.invocation Timestamp.Heap.t;
        (* each entry's id is its execute timer's *)
    mutable awaiting : Timestamp.t;
        (* timestamp of the pending OOP invoked here, or
           [Timestamp.none] *)
  }

  (* The replicas, maintained by replay through their shared log, and
     each process's [To_Execute] queue. *)
  type states = { replicas : Replica.t; procs : pstate array }

  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  (* A running cluster: the engine plus the replicas' states (exposed
     read-only for convergence checks in tests and examples). *)
  type t = { engine : engine; states : states; timing : timing }

  let fresh_states ~n =
    {
      replicas = Replica.create ~n;
      procs =
        Array.init n (fun _ ->
            {
              to_execute = Timestamp.Heap.create ();
              awaiting = Timestamp.none;
            });
    }

  (* Apply one mutator taken off [To_Execute], cancelling its execute
     timer; respond if it is the OOP pending at this process. *)
  let execute_one states (ctx : (msg, tag, T.response) Sim.Engine.ctx) ts
      exec_timer inv =
    ctx.cancel_timer exec_timer;
    let ret = Replica.apply states.replicas ctx.self inv in
    let p = states.procs.(ctx.self) in
    if Timestamp.equal p.awaiting ts then begin
      p.awaiting <- Timestamp.none;
      ctx.respond ret
    end

  (* Apply every queued mutator with timestamp at most [ts], in
     timestamp order (pseudocode lines 4-8 and 22-29). *)
  let execute_up_to states (ctx : (msg, tag, T.response) Sim.Engine.ctx) ts =
    Timestamp.Heap.drain states.procs.(ctx.self).to_execute ~upto:ts
      execute_one states ctx

  (* The handler triple, separated from engine construction so the
     same protocol can run either directly on an engine or wrapped by
     the reliable channel ([Core.Reliable]) over a lossy one. *)
  let protocol ~timing states =
    (* Queue a copy of [op], whose fields are [inv] and [ts]; [op]
       itself is the execute timer's tag. *)
    let add_to_queue (ctx : (msg, tag, T.response) Sim.Engine.ctx) op inv ts =
      let id = ctx.set_timer_after timing.execute_wait op in
      Timestamp.Heap.add states.procs.(ctx.self).to_execute ts ~id inv
    in
    let on_invoke (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv =
      match Sem.kind_of inv with
      | Spec.Op_kind.Pure_accessor ->
          (* Timestamp backdated by X; respond after d - X (line 2). *)
          let ts =
            Timestamp.make
              ~time:(Rat.sub ctx.local_time timing.accessor_backdate)
              ~proc:ctx.self
          in
          ignore
            (ctx.set_timer_after timing.accessor_wait (Respond_aop { inv; ts }))
      | (Spec.Op_kind.Pure_mutator | Spec.Op_kind.Mixed) as kind ->
          let ts = Timestamp.make ~time:ctx.local_time ~proc:ctx.self in
          (match kind with
          | Spec.Op_kind.Pure_mutator ->
              (* Pure mutators respond X + eps after invocation
                 (lines 11-13, 16-17). *)
              ignore
                (ctx.set_timer_after timing.mutator_ack_wait (Respond_ack inv))
          | Spec.Op_kind.Mixed -> states.procs.(ctx.self).awaiting <- ts
          | Spec.Op_kind.Pure_accessor -> assert false);
          (* Simulate the minimum delay locally before queueing the own
             operation (line 14), and tell everyone else (line 15). *)
          let op = Op { inv; ts } in
          ignore (ctx.set_timer_after timing.add_wait (Add op));
          ctx.broadcast op
    in
    let on_receive (ctx : (msg, tag, T.response) Sim.Engine.ctx) ~src:_ msg =
      match msg with
      | Op { inv; ts } -> add_to_queue ctx msg inv ts
      | Respond_aop _ | Respond_ack _ | Add _ ->
          (* Only [Op] is ever sent. *)
          assert false
    in
    let on_timer (ctx : (msg, tag, T.response) Sim.Engine.ctx) tag =
      match tag with
      | Respond_aop { inv; ts } ->
          (* Execute smaller-timestamped mutators first, then evaluate
             the accessor on the replica (lines 3-9).  A pure accessor
             leaves the state as it is, so only its response is
             computed. *)
          execute_up_to states ctx ts;
          ctx.respond (T.respond (Replica.state states.replicas ctx.self) inv)
      | Respond_ack inv ->
          (* A pure mutator's response cannot depend on the state
             (otherwise the operation would be an accessor), so the
             current replica determines it even though the mutation
             itself executes later; no successor is built here. *)
          ctx.respond (T.respond (Replica.state states.replicas ctx.self) inv)
      | Op { ts; _ } -> execute_up_to states ctx ts
      | Add (Op { inv; ts } as op) -> add_to_queue ctx op inv ts
      | Add _ ->
          (* [on_invoke] wraps only an [Op]. *)
          assert false
    in
    { Sim.Engine.on_invoke; on_receive; on_timer }

  (* Construction 1: every replica applies the mutators in timestamp
     order, and a pure accessor reads its replica at its backdated
     timestamp after draining every mutator up to it — inclusively, so
     it follows a mutator with the same timestamp.  A timestamp is the
     local clock at invocation, [inv_time + offsets.(proc)], here
     counted in quanta of [1/per]: scaling by [per > 0] keeps every
     comparison and tie, and in a run's own quanta every timestamp is
     an immediate int. *)
  let linearization ~timing ~offsets ~per
      (ops : (T.invocation, T.response) Sim.Trace.operation array) =
    let backdate = Rat.mul_int timing.accessor_backdate per in
    let accessor i = Sem.kind_of ops.(i).inv = Spec.Op_kind.Pure_accessor in
    Timestamp.order ~n:(Array.length ops)
      ~time:(fun i ->
        let o = ops.(i) in
        let local = Rat.add (Rat.mul_int o.inv_time per) offsets.(o.proc) in
        if accessor i then Rat.sub local backdate else local)
      ~proc:(fun i -> ops.(i).proc)
      ~late:accessor

  (* Algorithm 1 with the default timing derived from the model and
     the tradeoff parameter X in [0, d - eps]. *)
  let create ?retain_events ?faults ~(model : Sim.Model.t) ~x ~offsets ~delay
      () =
    Result.iter_error
      (fun msg -> invalid_arg ("Wtlw.create: " ^ msg))
      (check_x model x);
    let timing = default_timing model ~x in
    let states = fresh_states ~n:model.n in
    let engine =
      Sim.Engine.create ?retain_events ?faults ~model ~offsets ~delay
        ~handlers:(protocol ~timing states)
        ()
    in
    { engine; states; timing }

  let replica_state t i = Replica.state t.states.replicas i
  let states_converged states = Replica.converged states.replicas
  let replicas_converged t = states_converged t.states
end
