(* Flat binary min-heap over four parallel arrays (times / keys / tags
   / payloads) instead of an array of entry records: a push writes four
   slots and allocates nothing — no entry record, no [Some] box, and no
   per-event variant block, because what the event is lives in its int
   tag — which matters because the simulator's main loop pushes and
   pops one entry per dispatched event.  A slot's priority and sequence
   number share one order key, [priority lsl 61 lor seq], so the
   tie-break after the time is one int comparison; priority is 0 or 1
   and the sequence stays below 2^61, so the key is never negative.

   Payloads are stored as [Obj.t] so the payload array is an ordinary
   pointer array whatever ['a] is (never a flat float array) and freed
   slots can be cleared with an immediate: slots at index >= size are
   zeroed so a completed event's payload cannot stay reachable through
   the heap for the rest of a long run.  The casts are confined to
   [payload]/[push] below; the ['a t] phantom keeps the API typed.

   A queue outlives its run: [reset] clears what a run left in it and
   restarts the sequence, so the engine hands one queue from run to
   run on a domain and grows it once rather than per run. *)

type 'a t = {
  mutable times : Rat.t array;
  mutable keys : int array;
  mutable tags : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    keys = [||];
    tags = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let[@inline] payload (q : 'a t) i : 'a = Obj.obj q.payloads.(i)

let[@inline] clear_slot q i =
  q.times.(i) <- Rat.zero;
  q.payloads.(i) <- Obj.repr 0

(* Strict (time, key) ordering between slots [i] and [j]. *)
let[@inline] slot_lt q i j =
  let c = Rat.compare q.times.(i) q.times.(j) in
  if c <> 0 then c < 0 else q.keys.(i) < q.keys.(j)

let[@inline] copy_slot q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.keys.(dst) <- q.keys.(src);
  q.tags.(dst) <- q.tags.(src);
  q.payloads.(dst) <- q.payloads.(src)

let[@inline] set_slot q i ~time ~key ~tag pl =
  q.times.(i) <- time;
  q.keys.(i) <- key;
  q.tags.(i) <- tag;
  q.payloads.(i) <- pl

(* Top-level rather than local to [grow], so that growing allocates
   the four arrays and no closure. *)
let regrow a ~size ~fresh fill =
  let b = Array.make fresh fill in
  Array.blit a 0 b 0 size;
  b

let grow q =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let size = q.size and fresh = Stdlib.max 16 (2 * capacity) in
    q.times <- regrow q.times ~size ~fresh Rat.zero;
    q.keys <- regrow q.keys ~size ~fresh 0;
    q.tags <- regrow q.tags ~size ~fresh 0;
    q.payloads <- regrow q.payloads ~size ~fresh (Obj.repr 0)
  end

(* The freshly pushed entry sits at [q.size]; walk the hole toward the
   root, moving parents down, and drop the entry in once. *)
let sift_up q =
  let last = q.size in
  let i = ref last in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if slot_lt q last parent then i := parent else continue := false
  done;
  if !i < last then begin
    let time = q.times.(last)
    and key = q.keys.(last)
    and tag = q.tags.(last)
    and pl = q.payloads.(last) in
    (* Shift the parents on the path from [last] up to [!i] down one
       level, deepest first. *)
    let j = ref last in
    while !j > !i do
      let parent = (!j - 1) / 2 in
      copy_slot q ~src:parent ~dst:!j;
      j := parent
    done;
    set_slot q !i ~time ~key ~tag pl
  end

let swap q i j =
  let time = q.times.(i)
  and key = q.keys.(i)
  and tag = q.tags.(i)
  and pl = q.payloads.(i) in
  copy_slot q ~src:j ~dst:i;
  set_slot q j ~time ~key ~tag pl

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && slot_lt q left !smallest then smallest := left;
  if right < q.size && slot_lt q right !smallest then smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push (q : 'a t) ~priority ~time ~tag (x : 'a) =
  if priority lsr 1 <> 0 then
    invalid_arg
      (Printf.sprintf "Event_queue.push: priority %d is neither 0 nor 1"
         priority);
  grow q;
  set_slot q q.size ~time ~key:((priority lsl 61) lor q.next_seq) ~tag
    (Obj.repr x);
  q.next_seq <- q.next_seq + 1;
  sift_up q;
  q.size <- q.size + 1

let is_empty q = q.size = 0
let length q = q.size

let check_nonempty q fn =
  if q.size = 0 then invalid_arg ("Event_queue." ^ fn ^ ": empty queue")

let min_time q =
  check_nonempty q "min_time";
  q.times.(0)

let min_tag q =
  check_nonempty q "min_tag";
  q.tags.(0)

let pop_min (q : 'a t) : 'a =
  check_nonempty q "pop_min";
  let top : 'a = payload q 0 in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    copy_slot q ~src:q.size ~dst:0;
    clear_slot q q.size;
    sift_down q 0
  end
  else clear_slot q 0;
  top

let capacity q = Array.length q.times

(* Slots at or above [size] are already cleared (see [pop_min]); keys
   and tags are ints, which keep nothing alive. *)
let reset q =
  for i = 0 to q.size - 1 do
    clear_slot q i
  done;
  q.size <- 0;
  q.next_seq <- 0
