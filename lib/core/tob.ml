(** Folklore baseline 2 (paper §1): replication over a total-order
    broadcast built from synchronized clocks.

    Every operation — accessor or mutator — is timestamped with
    (local clock, process id), broadcast, and executed by every process
    at {e local} time [ts + d + eps].  Because message delays are at
    most [d] and clock skew at most [eps], every message with a smaller
    timestamp has arrived by then, so all processes execute all
    operations in timestamp order: a total-order broadcast.  The
    invoking process responds when it executes its own operation, so
    {e every} operation takes exactly [d + eps] — the time overhead of
    implementing the total order on a point-to-point system that the
    paper's introduction refers to.  The paper's algorithm beats this
    baseline on pure accessors ([d - X]) and pure mutators
    ([X + eps]). *)

module Make (T : Spec.Data_type.S) = struct
  module Replica = Replica.Make (T)

  type msg = Op_msg of { inv : T.invocation; ts : Timestamp.t }
  type tag = Execute of Timestamp.t
  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  type pstate = {
    queue : T.invocation Timestamp.Heap.t;
    mutable awaiting : Timestamp.t option;
  }

  (* The replicas, maintained by replay through their shared log, and
     each process's queue. *)
  type states = { replicas : Replica.t; procs : pstate array }
  type t = { engine : engine; states : states }

  let fresh_states ~n =
    {
      replicas = Replica.create ~n;
      procs =
        Array.init n (fun _ ->
            { queue = Timestamp.Heap.create (); awaiting = None });
    }

  (* The handler triple, decoupled from engine construction so the
     protocol can also run wrapped by the reliable channel.  Only the
     execution horizon [d + eps] is taken from the model. *)
  let protocol ~(model : Sim.Model.t) states =
    let horizon = Rat.add model.d model.eps in
    let deliver (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv ts =
      Timestamp.Heap.add states.procs.(ctx.self).queue ts inv;
      (* Fire when the local clock reaches ts + d + eps; the wait is
         never negative because delay <= d and skew <= eps. *)
      let wait = Rat.sub (Rat.add ts.Timestamp.time horizon) ctx.local_time in
      ignore (ctx.set_timer_after (Rat.max Rat.zero wait) (Execute ts))
    in
    let execute_one p (ctx : (msg, tag, T.response) Sim.Engine.ctx) ts inv =
      let ret = Replica.apply states.replicas ctx.self inv in
      match p.awaiting with
      | Some awaited when Timestamp.equal awaited ts ->
          p.awaiting <- None;
          ctx.respond ret
      | Some _ | None -> ()
    in
    let execute_up_to p ctx ts =
      Timestamp.Heap.drain p.queue ~upto:ts execute_one p ctx
    in
    let on_invoke (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv =
      let ts = Timestamp.make ~time:ctx.local_time ~proc:ctx.self in
      states.procs.(ctx.self).awaiting <- Some ts;
      deliver ctx inv ts;
      ctx.broadcast (Op_msg { inv; ts })
    in
    let on_receive (ctx : (msg, tag, T.response) Sim.Engine.ctx) ~src:_ msg =
      match msg with Op_msg { inv; ts } -> deliver ctx inv ts
    in
    let on_timer (ctx : (msg, tag, T.response) Sim.Engine.ctx) tag =
      match tag with Execute ts -> execute_up_to states.procs.(ctx.self) ctx ts
    in
    { Sim.Engine.on_invoke; on_receive; on_timer }

  (* Every replica executes every operation in timestamp order, and an
     operation's response is its result there.  Timestamps are counted
     in quanta of [1/per], as {!Wtlw.Make.linearization} counts them. *)
  let linearization ~offsets ~per
      (ops : (T.invocation, T.response) Sim.Trace.operation array) =
    Timestamp.order ~n:(Array.length ops)
      ~time:(fun i ->
        let o = ops.(i) in
        Rat.add (Rat.mul_int o.inv_time per) offsets.(o.proc))
      ~proc:(fun i -> ops.(i).proc)
      ~late:(fun _ -> false)

  let create ~(model : Sim.Model.t) ~offsets ~delay () =
    let states = fresh_states ~n:model.n in
    let engine =
      Sim.Engine.create ~model ~offsets ~delay
        ~handlers:(protocol ~model states) ()
    in
    { engine; states }

  let replica_state t i = Replica.state t.states.replicas i
end
