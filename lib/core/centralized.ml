(** Folklore baseline 1 (paper §1): the centralized algorithm.

    Every invocation is forwarded to a distinguished process [p_0],
    which applies it to the single authoritative copy in arrival order
    and sends the response back.  Operations are linearized by the
    order in which [p_0] applies them; each operation takes up to [2d]
    (one request plus one reply), except operations invoked at [p_0]
    itself, which are applied immediately and take zero time. *)

(* The coordinator's apply log: for each key, the invoking process of
   each apply on that key, latest first. *)
type log = int list array

module Make (T : Spec.Data_type.S) = struct
  (* [op] numbers the invoking process's operations from 1, so that a
     duplicated request is applied once and a duplicated reply is
     delivered once. *)
  type msg =
    | Request of { inv : T.invocation; op : int }
    | Reply of { resp : T.response; op : int }

  type tag = unit (* the centralized algorithm sets no timers *)

  type engine = (msg, tag, T.invocation, T.response) Sim.Engine.t

  (* The single authoritative copy held at the coordinator, and its
     apply log under the keys [key_of] names.  [served.(p)] is the
     number of [p]'s last applied operation (coordinator side);
     [client.(p)] is the number of [p]'s pending operation, or minus
     the number of its last completed one (process [p]'s side). *)
  type hub = {
    mutable master : T.state;
    key_of : T.invocation -> int;
    mutable applied : log;
    served : int array;
    client : int array;
  }

  type t = { engine : engine; hub : hub }

  let coordinator = 0

  let fresh_hub ?(key_of = fun _ -> 0) ~n () =
    {
      master = T.initial;
      key_of;
      applied = [||];
      served = Array.make n 0;
      client = Array.make n 0;
    }

  let protocol hub =
    let apply_master ~proc inv =
      let state', resp = T.apply hub.master inv in
      hub.master <- state';
      let key = hub.key_of inv in
      let len = Array.length hub.applied in
      if key >= len then begin
        let applied = Array.make (max (key + 1) (2 * len)) [] in
        Array.blit hub.applied 0 applied 0 len;
        hub.applied <- applied
      end;
      hub.applied.(key) <- proc :: hub.applied.(key);
      resp
    in
    let on_invoke (ctx : (msg, tag, T.response) Sim.Engine.ctx) inv =
      if ctx.self = coordinator then
        ctx.respond (apply_master ~proc:coordinator inv)
      else begin
        let op = 1 + abs hub.client.(ctx.self) in
        hub.client.(ctx.self) <- op;
        ctx.send ~dst:coordinator (Request { inv; op })
      end
    in
    let on_receive (ctx : (msg, tag, T.response) Sim.Engine.ctx) ~src msg =
      match msg with
      | Request { inv; op } ->
          assert (ctx.self = coordinator);
          if op > hub.served.(src) then begin
            hub.served.(src) <- op;
            ctx.send ~dst:src (Reply { resp = apply_master ~proc:src inv; op })
          end
      | Reply { resp; op } ->
          if op = hub.client.(ctx.self) then begin
            hub.client.(ctx.self) <- -op;
            ctx.respond resp
          end
    in
    let on_timer _ctx (() : tag) = assert false (* no timers are set *) in
    { Sim.Engine.on_invoke; on_receive; on_timer }

  let create ~(model : Sim.Model.t) ~offsets ~delay () =
    let hub = fresh_hub ~n:model.n () in
    let engine =
      Sim.Engine.create ~model ~offsets ~delay ~handlers:(protocol hub) ()
    in
    { engine; hub }

  let master t = t.hub.master
  let log hub = hub.applied

  (* A process has at most one operation pending, so the [k]-th apply
     on [key] on behalf of process [p] is [p]'s [k]-th invocation on
     [key].  An apply with no completed operation to match (its reply
     never arrived) is skipped. *)
  let linearization (applied : log) ~key
      (ops : (T.invocation, T.response) Sim.Trace.operation array) =
    let procs =
      Array.fold_left
        (fun m (o : _ Sim.Trace.operation) -> max m (o.proc + 1))
        0 ops
    in
    (* each process's operations, in the order [ops] lists them *)
    let unmatched = Array.make procs [] in
    for i = Array.length ops - 1 downto 0 do
      let p = ops.(i).proc in
      unmatched.(p) <- i :: unmatched.(p)
    done;
    List.fold_left
      (fun order p ->
        match if p < procs then unmatched.(p) else [] with
        | i :: rest ->
            unmatched.(p) <- rest;
            i :: order
        | [] -> order)
      []
      (List.rev (if key < Array.length applied then applied.(key) else []))
    |> List.rev |> Array.of_list
end
