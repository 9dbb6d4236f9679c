(* Linear extension of a union of forced-precedence relations.

   Each kernel reduces its "which value comes first" question to a set
   of relations of the shape

     u must precede w   iff   fkey u < skey w

   (an op of [u] finished before an op of [w] started, so real time
   forces [u]'s op — and with it the whole value — first).  Every
   relation of this shape is an interval order, and a linear extension
   of their union, when one exists, can be built greedily: a value is a
   {e source} when no alive value is forced before it under any
   relation, and moving any source to the front preserves feasibility
   of the rest (nothing needed to precede it, and removing it only
   removes constraints).  Which source to pick is thus a pure
   completeness heuristic, exposed as [prefer].

   The sweep is O(n log n): per relation, values unblock in ascending
   [skey] order as the minimum alive [fkey] rises, so one pointer per
   relation plus a path-compressed skip list over the [fkey]-sorted
   array visits every value O(1) amortized times. *)

type relation = {
  f : int array;
      (** per value, the operation whose response is its [fkey]; [-1]: the
          value exerts no constraint through this relation *)
  s : int array;
      (** per value, the operation whose invocation is its [skey]; [-1]:
          the value is never blocked by this relation *)
}

(* Forced pairs [(u, w)] (u first) that fit no interval-order
   relation, in discovery order. *)
module Edges = struct
  type t = { mutable src : int array; mutable dst : int array; mutable n : int }

  let create () = { src = [||]; dst = [||]; n = 0 }

  let add e u w =
    if e.n = Array.length e.src then begin
      let grow a = Array.append a (Array.make (max 16 e.n) 0) in
      e.src <- grow e.src;
      e.dst <- grow e.dst
    end;
    e.src.(e.n) <- u;
    e.dst.(e.n) <- w;
    e.n <- e.n + 1
end

type rstate = {
  rel : relation;
  sort_s : int array;  (** values with a skey, ascending *)
  mutable sptr : int;
  sort_f : int array;  (** values with an fkey, ascending *)
  nxt : int array;  (** skip list over [sort_f] positions *)
  bumped : Bytes.t;
      (** per value: already reported unblocked to this relation *)
}

module Flags = Record.Flags

(* first alive position >= i in [sort_f], with path compression *)
let rec find_alive st alive i =
  if i >= Array.length st.sort_f then i
  else if Flags.get alive st.sort_f.(i) then i
  else begin
    let j = find_alive st alive st.nxt.(i) in
    st.nxt.(i) <- j;
    j
  end

(* the operation holding the minimum alive fkey, excluding value [w]
   itself; [-1] when there is none *)
let min_fkey_excluding st alive w =
  let len = Array.length st.sort_f in
  let i = find_alive st alive 0 in
  if i >= len then -1
  else if st.sort_f.(i) <> w then st.rel.f.(st.sort_f.(i))
  else
    let j = find_alive st alive (i + 1) in
    if j >= len then -1 else st.rel.f.(st.sort_f.(j))

(* a tiny binary min-heap over non-negative ints; [pop] is [-1] when
   empty *)
module Heap = struct
  type t = { mutable a : int array; mutable n : int; cmp : int -> int -> int }

  let create cmp = { a = Array.make 16 0; n = 0; cmp }

  let push h v =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- v;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      if h.cmp h.a.(!i) h.a.(p) < 0 then begin
        let t = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- t;
        i := p;
        true
      end
      else false
    do
      ()
    done

  let pop h =
    if h.n = 0 then -1
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.n && h.cmp h.a.(l) h.a.(!s) < 0 then s := l;
        if r < h.n && h.cmp h.a.(r) h.a.(!s) < 0 then s := r;
        if !s = !i then continue := false
        else begin
          let t = h.a.(!s) in
          h.a.(!s) <- h.a.(!i);
          h.a.(!i) <- t;
          i := !s
        end
      done;
      top
    end
end

(* [solve view ~m ~relations ~edges prefer] returns a linear extension
   of the union (values first to last), or [None] if the constraints
   are cyclic (real violation) or the greedy cannot certify one.  The
   relations' keys are positions in [view].  [edges] are resolved
   Kahn-style.  [prefer] orders available sources: lower first. *)
let solve (view : Record.view) ~m ~(relations : relation list)
    ~(edges : Edges.t) (prefer : int -> int -> int) : int array option =
  let finish id = view.finish.(id) and start id = view.start.(id) in
  let alive = Flags.make m true in
  let nrel = List.length relations + if edges.n = 0 then 0 else 1 in
  let sat = Array.make m 0 in
  let sources = Heap.create prefer in
  let bump v =
    sat.(v) <- sat.(v) + 1;
    if sat.(v) = nrel then Heap.push sources v
  in
  let states =
    List.map
      (fun rel ->
        let sorted key time =
          Record.sorted_ids m
            ~keep:(fun v -> key.(v) >= 0)
            (fun a b -> Rat.compare (time key.(a)) (time key.(b)))
        in
        let sort_f = sorted rel.f finish in
        {
          rel;
          sort_s = sorted rel.s start;
          sptr = 0;
          sort_f;
          nxt = Array.init (Array.length sort_f) succ;
          bumped = Flags.make m false;
        })
      relations
  in
  (* successor lists in edge order: [out.(out_at.(u)) ..
     out.(out_at.(u + 1) - 1)] *)
  let out_at = Array.make (m + 1) 0 in
  let npred = Array.make m 0 in
  for k = 0 to edges.n - 1 do
    out_at.(edges.src.(k) + 1) <- out_at.(edges.src.(k) + 1) + 1;
    npred.(edges.dst.(k)) <- npred.(edges.dst.(k)) + 1
  done;
  for v = 0 to m - 1 do
    out_at.(v + 1) <- out_at.(v + 1) + out_at.(v)
  done;
  let out = Array.make edges.n 0 in
  let fill = Array.sub out_at 0 m in
  for k = 0 to edges.n - 1 do
    let u = edges.src.(k) in
    out.(fill.(u)) <- edges.dst.(k);
    fill.(u) <- fill.(u) + 1
  done;
  if edges.n > 0 then
    for v = 0 to m - 1 do
      if npred.(v) = 0 then bump v
    done;
  (* values with no skey are never blocked by that relation *)
  List.iter
    (fun st ->
      for v = 0 to m - 1 do
        if st.rel.s.(v) < 0 then begin
          Flags.set st.bumped v;
          bump v
        end
      done)
    states;
  let unblocked st w =
    let g = min_fkey_excluding st alive w in
    g < 0 || not (Rat.lt (finish g) (start st.rel.s.(w)))
  in
  let advance st =
    (* the skey pointer: for a non-owner the blocking test compares
       the global min alive fkey against its skey, so unblocking is
       monotone in skey and a single pointer suffices *)
    let len = Array.length st.sort_s in
    let walking = ref true in
    while !walking && st.sptr < len do
      let w = st.sort_s.(st.sptr) in
      if (not (Flags.get alive w)) || Flags.get st.bumped w then
        st.sptr <- st.sptr + 1
      else if unblocked st w then begin
        Flags.set st.bumped w;
        bump w;
        st.sptr <- st.sptr + 1
      end
      else walking := false
    done;
    (* the one exception: the owner of the min alive fkey tests
       against the {e second} minimum (its own fkey is excluded), so
       it can unblock ahead of its skey turn *)
    let i = find_alive st alive 0 in
    if i < Array.length st.sort_f then begin
      let o = st.sort_f.(i) in
      if (not (Flags.get st.bumped o)) && unblocked st o then begin
        Flags.set st.bumped o;
        bump o
      end
    end
  in
  List.iter advance states;
  let order = Array.make m 0 in
  let emitted = ref 0 in
  let stuck = ref false in
  while !emitted < m && not !stuck do
    let v = Heap.pop sources in
    if v < 0 then stuck := true
    else begin
      Flags.clear alive v;
      order.(!emitted) <- v;
      incr emitted;
      for k = out_at.(v) to out_at.(v + 1) - 1 do
        let w = out.(k) in
        npred.(w) <- npred.(w) - 1;
        if npred.(w) = 0 then bump w
      done;
      List.iter advance states
    end
  done;
  if !stuck then None else Some order
