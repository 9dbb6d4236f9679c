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

(* [count.(p)]: how many applies in [log] served [p], for every [p]
   that [count] covers. *)
let rec count_applies count = function
  | p :: rest ->
      if p < Array.length count then count.(p) <- count.(p) + 1;
      count_applies count rest
  | [] -> ()

(* Walk [log], latest apply first, with [count.(p)] still [p]'s number
   of applies: each apply of [p] that has an operation to match, the
   [k]-th of [mine.(first.(p) ..)], takes the last free slot of
   [order] below [pos]. *)
let rec fill_order order ~first ~mine count pos = function
  | p :: rest ->
      let pos =
        if p >= Array.length count then pos
        else begin
          let k = count.(p) - 1 in
          count.(p) <- k;
          if k < first.(p + 1) - first.(p) then begin
            order.(pos - 1) <- mine.(first.(p) + k);
            pos - 1
          end
          else pos
        end
      in
      fill_order order ~first ~mine count pos rest
  | [] -> ()

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
     never arrived) is skipped.  Arrays only: a counting sort groups
     [ops]' positions by process, one pass over the log counts each
     process's applies, and a second, latest apply first, fills the
     order from its end. *)
  let linearization (applied : log) ~key
      (ops : (T.invocation, T.response) Sim.Trace.operation array) =
    let n = Array.length ops in
    let procs = ref 0 in
    for i = 0 to n - 1 do
      procs := max !procs (ops.(i).proc + 1)
    done;
    let procs = !procs in
    (* [p]'s operations, in the order [ops] lists them, are
       [mine.(first.(p) .. first.(p + 1) - 1)] *)
    let first = Array.make (procs + 1) 0 in
    for i = 0 to n - 1 do
      let p = ops.(i).proc + 1 in
      first.(p) <- first.(p) + 1
    done;
    for p = 1 to procs do
      first.(p) <- first.(p) + first.(p - 1)
    done;
    let count = Array.sub first 0 procs in
    let mine = Array.make n 0 in
    for i = 0 to n - 1 do
      let p = ops.(i).proc in
      mine.(count.(p)) <- i;
      count.(p) <- count.(p) + 1
    done;
    (* each process's applies, then how many of them match *)
    Array.fill count 0 procs 0;
    let log = if key < Array.length applied then applied.(key) else [] in
    count_applies count log;
    let matched = ref 0 in
    for p = 0 to procs - 1 do
      matched := !matched + min count.(p) (first.(p + 1) - first.(p))
    done;
    let order = Array.make !matched 0 in
    fill_order order ~first ~mine count !matched log;
    order
end
