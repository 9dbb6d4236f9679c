(* Flat binary min-heap over parallel arrays (times / klasses / seqs /
   kinds / fsts / snds / payloads) instead of an array of entry
   records: a push writes seven slots and allocates nothing — no entry
   record, no [Some] box, and no per-event variant block, because the
   event's kind and its two int fields live in their own int slots —
   which matters because the simulator's main loop pushes and pops one
   entry per dispatched event.

   Payloads are stored as [Obj.t] so the payload array is an ordinary
   pointer array whatever ['a] is (never a flat float array) and freed
   slots can be cleared with an immediate: slots at index >= size are
   zeroed so a completed event's payload cannot stay reachable through
   the heap for the rest of a long run.  The casts are confined to
   [payload]/[push] below; the ['a t] phantom keeps the API typed. *)

type 'a t = {
  mutable times : Rat.t array;
  mutable klasses : int array;
  mutable seqs : int array;
  mutable kinds : int array;
  mutable fsts : int array;
  mutable snds : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = [||];
    klasses = [||];
    seqs = [||];
    kinds = [||];
    fsts = [||];
    snds = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let[@inline] payload (q : 'a t) i : 'a = Obj.obj q.payloads.(i)

let[@inline] clear_slot q i =
  q.times.(i) <- Rat.zero;
  q.payloads.(i) <- Obj.repr 0

(* Strict (time, klass, seq) ordering between slots [i] and [j]. *)
let[@inline] slot_lt q i j =
  let c = Rat.compare q.times.(i) q.times.(j) in
  if c <> 0 then c < 0
  else if q.klasses.(i) <> q.klasses.(j) then q.klasses.(i) < q.klasses.(j)
  else q.seqs.(i) < q.seqs.(j)

let[@inline] copy_slot q ~src ~dst =
  q.times.(dst) <- q.times.(src);
  q.klasses.(dst) <- q.klasses.(src);
  q.seqs.(dst) <- q.seqs.(src);
  q.kinds.(dst) <- q.kinds.(src);
  q.fsts.(dst) <- q.fsts.(src);
  q.snds.(dst) <- q.snds.(src);
  q.payloads.(dst) <- q.payloads.(src)

let grow q =
  let capacity = Array.length q.times in
  if q.size = capacity then begin
    let fresh = Stdlib.max 16 (2 * capacity) in
    let ints a =
      let b = Array.make fresh 0 in
      Array.blit a 0 b 0 q.size;
      b
    in
    let times = Array.make fresh Rat.zero in
    let payloads = Array.make fresh (Obj.repr 0) in
    Array.blit q.times 0 times 0 q.size;
    Array.blit q.payloads 0 payloads 0 q.size;
    q.times <- times;
    q.klasses <- ints q.klasses;
    q.seqs <- ints q.seqs;
    q.kinds <- ints q.kinds;
    q.fsts <- ints q.fsts;
    q.snds <- ints q.snds;
    q.payloads <- payloads
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
    and klass = q.klasses.(last)
    and seq = q.seqs.(last)
    and kind = q.kinds.(last)
    and fst = q.fsts.(last)
    and snd = q.snds.(last)
    and pl = q.payloads.(last) in
    (* Shift the parents on the path from [last] up to [!i] down one
       level, deepest first. *)
    let j = ref last in
    while !j > !i do
      let parent = (!j - 1) / 2 in
      copy_slot q ~src:parent ~dst:!j;
      j := parent
    done;
    q.times.(!i) <- time;
    q.klasses.(!i) <- klass;
    q.seqs.(!i) <- seq;
    q.kinds.(!i) <- kind;
    q.fsts.(!i) <- fst;
    q.snds.(!i) <- snd;
    q.payloads.(!i) <- pl
  end

let swap q i j =
  let time = q.times.(i)
  and klass = q.klasses.(i)
  and seq = q.seqs.(i)
  and kind = q.kinds.(i)
  and fst = q.fsts.(i)
  and snd = q.snds.(i)
  and pl = q.payloads.(i) in
  copy_slot q ~src:j ~dst:i;
  q.times.(j) <- time;
  q.klasses.(j) <- klass;
  q.seqs.(j) <- seq;
  q.kinds.(j) <- kind;
  q.fsts.(j) <- fst;
  q.snds.(j) <- snd;
  q.payloads.(j) <- pl

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && slot_lt q left !smallest then smallest := left;
  if right < q.size && slot_lt q right !smallest then smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

let push (q : 'a t) ~priority ~time ~kind ~fst ~snd (x : 'a) =
  grow q;
  let i = q.size in
  q.times.(i) <- time;
  q.klasses.(i) <- priority;
  q.seqs.(i) <- q.next_seq;
  q.kinds.(i) <- kind;
  q.fsts.(i) <- fst;
  q.snds.(i) <- snd;
  q.payloads.(i) <- Obj.repr x;
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

let min_kind q =
  check_nonempty q "min_kind";
  q.kinds.(0)

let min_fst q =
  check_nonempty q "min_fst";
  q.fsts.(0)

let min_snd q =
  check_nonempty q "min_snd";
  q.snds.(0)

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

let pop q =
  if q.size = 0 then None
  else
    let time = q.times.(0) in
    Some (time, pop_min q)

let peek_time q = if q.size = 0 then None else Some q.times.(0)
