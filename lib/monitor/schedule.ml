(* Lazy-insertion construction of a candidate linearization for
   container histories (queue, stack, priority queue).

   The container kernel fixes an insertion order for the values (a
   linear extension of every precedence real time forces, the one
   {!Sweeps.value_order} prefers for the shape) and this scheduler
   replays the history against an abstract container of that shape.  It keeps
   servicing the access point (head / top / max) — peeks of the value
   there, then its take — and grows the container only when real time
   {e forces} the next insertion: some operation of a pending value
   finishes before the current head operation starts (tracked as a
   suffix-minimum over insertion deadlines, since a forced late value
   drags every value ordered before it along).  Every operation emitted
   while an insertion stays deferred is then conflict-free against all
   of the deferred values' operations.  Empty observations fire
   whenever the container is empty; when the head carries no pending
   operation, inserting is the only way to make progress.

   The result is semantically legal by construction; the dispatcher
   still re-verifies it (replay + real-time sweep) before accepting.
   When no operation is enabled but work remains, the scheduler gives
   up with [Unknown] and the dispatcher falls back to Wing-Gong — the
   scheduler is sound but deliberately not complete.

   Items are positions in the insertion order, the container is an int
   array of them (a FIFO window, a stack, or a max-heap on the value),
   and each item's peeks sit in one flat array sorted once. *)

type action = Idle | Insert | Peek | Take | Empty

(* [run ~kind cl ~order]: [kind] is the container's shape, and [order]
   the insertion sequence over value classes (every class has a put —
   the cheap patterns rejected fresh observations already). *)
let run ~kind (cl : Record.classes) ~(order : int array) : Record.outcome =
  let start = cl.view.start and take = cl.take in
  let finish id = cl.view.finish.(id) in
  let m = Array.length order in
  let pos = Array.make cl.count 0 in
  Array.iteri (fun k c -> pos.(c) <- k) order;
  (* item [k]'s peeks, by response time, are
     [peeks.(peek_at.(k)) .. peeks.(peek_at.(k + 1) - 1)] *)
  let first_peek c = cl.phase_at.(c) + if take.(c) >= 0 then 1 else 0 in
  let peek_at = Array.make (m + 1) 0 in
  Array.iteri
    (fun k c ->
      peek_at.(k + 1) <- peek_at.(k) + cl.phase_at.(c + 1) - first_peek c)
    order;
  let peeks = Array.make peek_at.(m) 0 in
  Array.iteri
    (fun k c ->
      Array.blit cl.phase (first_peek c) peeks peek_at.(k)
        (peek_at.(k + 1) - peek_at.(k)))
    order;
  Record.stable_sort_ints
    (fun a b ->
      match Int.compare pos.(cl.owner.(a)) pos.(cl.owner.(b)) with
      | 0 -> Rat.compare (finish a) (finish b)
      | c -> c)
    peeks;
  let next_peek = Array.sub peek_at 0 m in
  (* earliest deadline among the insertions from [k] on: a later value
     being forced pulls every insertion ordered before it along *)
  let deadline k =
    let c = order.(k) in
    let d = ref (finish cl.put.(c)) in
    for j = cl.phase_at.(c) to cl.phase_at.(c + 1) - 1 do
      d := Rat.min !d (finish cl.phase.(j))
    done;
    !d
  in
  let sufmin = Array.make m Rat.zero in
  for k = m - 1 downto 0 do
    sufmin.(k) <-
      (if k = m - 1 then deadline k else Rat.min sufmin.(k + 1) (deadline k))
  done;
  let empties = Array.copy cl.empties in
  Record.stable_sort_ints
    (fun a b -> Rat.compare (finish a) (finish b))
    empties;
  let ne = Array.length empties in
  let total = m + Array.length cl.phase + ne in
  (* the container holds items [cont.(lo) .. cont.(hi - 1)]; for the
     priority shape it is a max-heap on the value with [lo] = 0 *)
  let cont = Array.make m 0 in
  let lo = ref 0 and hi = ref 0 in
  let value k = cl.value.(order.(k)) in
  let swap i j =
    let t = cont.(i) in
    cont.(i) <- cont.(j);
    cont.(j) <- t
  in
  let head () =
    if !lo = !hi then -1
    else
      match kind with Spec.Adt_view.Stack -> cont.(!hi - 1) | _ -> cont.(!lo)
  in
  let insert k =
    cont.(!hi) <- k;
    incr hi;
    match kind with
    | Spec.Adt_view.Priority_queue ->
        let i = ref (!hi - 1) in
        while !i > 0 && value cont.((!i - 1) / 2) < value cont.(!i) do
          swap !i ((!i - 1) / 2);
          i := (!i - 1) / 2
        done
    | _ -> ()
  in
  let remove_head () =
    match kind with
    | Spec.Adt_view.Stack -> decr hi
    | Spec.Adt_view.Priority_queue ->
        decr hi;
        cont.(0) <- cont.(!hi);
        let i = ref 0 and sifting = ref true in
        while !sifting do
          let l = (2 * !i) + 1 in
          let big =
            if l + 1 < !hi && value cont.(l) < value cont.(l + 1) then l + 1
            else l
          in
          if big < !hi && value cont.(!i) < value cont.(big) then begin
            swap !i big;
            i := big
          end
          else sifting := false
        done
    | _ -> incr lo
  in
  let out = Array.make total 0 in
  let emitted = ref 0 in
  let emit id =
    out.(!emitted) <- id;
    incr emitted
  in
  let next_ins = ref 0 and next_emp = ref 0 in
  let stuck = ref false in
  while !emitted < total && not !stuck do
    (* Lazy insertion: keep servicing the access point and only grow
       the container when real time forces it — some operation of the
       next value (its put, or an op waiting on its presence) finishes
       before the head's current operation starts.  Every operation
       emitted while the insertion stays deferred is then conflict-free
       against all of the deferred value's operations: its deadline
       (the minimum of those finishes) was >= the emitted op's start.
       The head's pending operation is its first peek, else its take. *)
    let h = head () in
    let o = ref (-1) in
    let pending =
      if h >= 0 then
        if next_peek.(h) < peek_at.(h + 1) then begin
          o := peeks.(next_peek.(h));
          Peek
        end
        else if take.(order.(h)) >= 0 then begin
          o := take.(order.(h));
          Take
        end
        else Idle
      else if !next_emp < ne then begin
        o := empties.(!next_emp);
        Empty
      end
      else Idle
    in
    let insert_ready = !next_ins < m in
    let action =
      match pending with
      | Idle -> if insert_ready then Insert else Idle
      | _ ->
          if insert_ready && Rat.lt sufmin.(!next_ins) start.(!o) then
            Insert
          else pending
    in
    match action with
    | Idle -> stuck := true
    | Insert ->
        emit cl.put.(order.(!next_ins));
        insert !next_ins;
        incr next_ins
    | Peek ->
        next_peek.(h) <- next_peek.(h) + 1;
        emit !o
    | Take ->
        remove_head ();
        emit !o
    | Empty ->
        incr next_emp;
        emit !o
  done;
  if !stuck then
    Record.Unknown
      (Lazy.from_val
         (Printf.sprintf
            "greedy scheduler stuck after %d/%d operations (head %s, next \
             insertion %s)"
            !emitted total
            (match head () with -1 -> "-" | h -> string_of_int (value h))
            (if !next_ins < m then string_of_int (value !next_ins) else "-")))
  else Record.Order out
