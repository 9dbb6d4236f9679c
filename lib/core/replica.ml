(* A recorded step is [inputs.(k) --invs.(k)--> outputs.(k)],
   answering [responses.(k)]; the reuse rule is in the interface.

   The log is a ring of the most recent steps, allocated on the first
   apply, so a cluster that never applies anything pays nothing for it.
   It starts with [first_window] slots and doubles, up to
   [max_window], whenever the oldest step is about to be overwritten
   while a replica still stands at its input.  How far a replica falls
   behind on the lossy benchmark leg depends on the seed: 8 steps at
   some seeds, 16 at most others, and a replica that falls out of the
   window computes every later step itself, so a fixed 8 left
   words/op varying by 5% from seed to seed.  32 is twice the largest
   lag measured; small runs fill only a few slots (DESIGN 4h).  Steps
   link to nothing: a forward link from an old step to a newer one
   would be a write of a young value into a promoted block, which
   keeps every step alive through the remembered set. *)

let first_window = 4
let max_window = 32

module Make (T : Spec.Data_type.S) = struct
  type t = {
    current : T.state array;
    mutable invs : T.invocation array;
    mutable inputs : T.state array;
    mutable outputs : T.state array;
    mutable responses : T.response array;
    mutable recorded : int;  (* steps recorded so far *)
  }

  let create ~n =
    {
      current = Array.make n T.initial;
      invs = [||];
      inputs = [||];
      outputs = [||];
      responses = [||];
      recorded = 0;
    }

  let state t i = t.current.(i)

  (* The slot of a recorded step from [s] by [inv], or -1; [k] counts
     down through the filled slots. *)
  let rec find t s inv k =
    if k < 0 then -1
    else if
      t.inputs.(k) == s
      &&
      let recorded = t.invs.(k) in
      recorded == inv || T.equal_invocation recorded inv
    then k
    else find t s inv (k - 1)

  (* Does a replica at or below [i] stand at [s]? *)
  let rec needed current s i =
    i >= 0 && (current.(i) == s || needed current s (i - 1))

  (* Copy the ring into twice as many slots, oldest first. *)
  let grow t =
    let cap = Array.length t.inputs in
    let oldest = t.recorded land (cap - 1) in
    let resize a =
      Array.init (2 * cap) (fun j ->
          a.((oldest + Stdlib.min j (cap - 1)) land (cap - 1)))
    in
    t.invs <- resize t.invs;
    t.inputs <- resize t.inputs;
    t.outputs <- resize t.outputs;
    t.responses <- resize t.responses;
    t.recorded <- cap

  let record t s inv s' r =
    if t.recorded = 0 then begin
      t.invs <- Array.make first_window inv;
      t.inputs <- Array.make first_window s;
      t.outputs <- Array.make first_window s';
      t.responses <- Array.make first_window r
    end
    else begin
      let cap = Array.length t.inputs in
      if
        cap < max_window
        && t.recorded >= cap
        && needed t.current
             t.inputs.(t.recorded land (cap - 1))
             (Array.length t.current - 1)
      then grow t;
      let k = t.recorded land (Array.length t.inputs - 1) in
      t.invs.(k) <- inv;
      t.inputs.(k) <- s;
      t.outputs.(k) <- s';
      t.responses.(k) <- r
    end;
    t.recorded <- t.recorded + 1

  let apply t i inv =
    let s = t.current.(i) in
    let k =
      find t s inv (Stdlib.min t.recorded (Array.length t.inputs) - 1)
    in
    if k >= 0 then begin
      t.current.(i) <- t.outputs.(k);
      t.responses.(k)
    end
    else begin
      let s', r = T.apply s inv in
      t.current.(i) <- s';
      record t s inv s' r;
      r
    end

  let converged t =
    Array.length t.current = 0
    ||
    let reference = t.current.(0) in
    Array.for_all
      (fun s -> s == reference || T.equal_state s reference)
      t.current
end
