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

  (* Messages and timer tags are one type: the broadcast [Op] block is
     also the tag of the execute timer set wherever a copy of it is
     queued, the invoker's own copy included. *)
  type event = Op of { inv : T.invocation; ts : Timestamp.t }
  type msg = event
  type tag = event
  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  type pstate = {
    queue : T.invocation Timestamp.Heap.t;
        (* each entry's id is its execute timer's *)
    mutable awaiting : Timestamp.t;  (* or [Timestamp.none] *)
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
            { queue = Timestamp.Heap.create (); awaiting = Timestamp.none });
    }

  (* The handler triple, decoupled from engine construction so the
     protocol can also run wrapped by the reliable channel.  Only the
     execution horizon [d + eps] is taken from the model. *)
  let protocol ~(model : Sim.Model.t) states =
    let horizon = Rat.add model.d model.eps in
    (* Queue a copy of [op], whose fields are [inv] and [ts]. *)
    let deliver (ctx : (msg, tag, T.response) Sim.Engine.ctx) op inv ts =
      (* Fire when the local clock reaches ts + d + eps; the wait is
         never negative because delay <= d and skew <= eps. *)
      let wait = Rat.sub (Rat.add ts.Timestamp.time horizon) ctx.local_time in
      let id = ctx.set_timer_after (Rat.max Rat.zero wait) op in
      Timestamp.Heap.add states.procs.(ctx.self).queue ts ~id inv
    in
    let execute_one p (ctx : (msg, tag, T.response) Sim.Engine.ctx) ts _id inv
        =
      let ret = Replica.apply states.replicas ctx.self inv in
      if Timestamp.equal p.awaiting ts then begin
        p.awaiting <- Timestamp.none;
        ctx.respond ret
      end
    in
    let execute_up_to p ctx ts =
      Timestamp.Heap.drain p.queue ~upto:ts execute_one p ctx
    in
    let on_invoke (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv =
      let ts = Timestamp.make ~time:ctx.local_time ~proc:ctx.self in
      states.procs.(ctx.self).awaiting <- ts;
      let op = Op { inv; ts } in
      deliver ctx op inv ts;
      ctx.broadcast op
    in
    let on_receive (ctx : (msg, tag, T.response) Sim.Engine.ctx) ~src:_ msg =
      match msg with Op { inv; ts } -> deliver ctx msg inv ts
    in
    let on_timer (ctx : (msg, tag, T.response) Sim.Engine.ctx) tag =
      match tag with
      | Op { ts; _ } -> execute_up_to states.procs.(ctx.self) ctx ts
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
