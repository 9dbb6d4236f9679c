(** Operation timestamps (paper §5.1): the pair (local invocation clock
    time, invoking process id), ordered lexicographically.  Process ids
    break ties, so timestamps of distinct operations are distinct, and
    timestamps assigned at one process strictly increase (operations at
    a process are sequential and take positive time). *)

type t = { time : Rat.t; proc : int }

let make ~time ~proc = { time; proc }

let compare a b =
  let c = Rat.compare a.time b.time in
  if c <> 0 then c else Stdlib.compare a.proc b.proc

let equal a b = compare a b = 0
let le a b = compare a b <= 0
let pp ppf t = Format.fprintf ppf "(%a, p%d)" Rat.pp t.time t.proc

(* No process has id -1, so no operation's timestamp equals this one. *)
let none = { time = Rat.zero; proc = -1 }

(* The comparison is total, so any sort gives the one order; the int
   sort the monitors use builds no closure per merge and raises
   nothing. *)
let order ~n ~time ~proc ~late =
  let times = Array.init n time in
  let ids = Array.init n Fun.id in
  Monitor.Record.stable_sort_ints
    (fun a b ->
      let c = Rat.compare times.(a) times.(b) in
      if c <> 0 then c
      else
        let c = Int.compare (proc a) (proc b) in
        if c <> 0 then c
        else
          let c = Bool.compare (late a) (late b) in
          if c <> 0 then c else Int.compare a b)
    ids;
  ids

module Heap = struct
  (* A binary min-heap over three parallel arrays: each entry's key,
     timer id and value.  Slots at index >= size hold [none] as key;
     their values are left as they were until the slot is reused, so at
     most the heap's capacity (its largest size so far) of finished
     values stays reachable. *)
  type key = t

  type 'a t = {
    mutable keys : key array;
    mutable ids : int array;
    mutable values : 'a array;
    mutable size : int;
  }

  let create () = { keys = [||]; ids = [||]; values = [||]; size = 0 }
  let length h = h.size

  (* Index of the entry whose key equals [ts], or -1.  A subtree whose
     root is above [ts] holds nothing equal to it, so only the entries
     below [ts] (and their children) are visited. *)
  let rec find h ts i =
    if i >= h.size then -1
    else
      let c = compare ts h.keys.(i) in
      if c = 0 then i
      else if c < 0 then -1
      else
        let l = find h ts ((2 * i) + 1) in
        if l >= 0 then l else find h ts ((2 * i) + 2)

  let grow h v =
    let capacity = Array.length h.keys in
    if h.size = capacity then begin
      let fresh = max 8 (2 * capacity) in
      let keys = Array.make fresh none
      and ids = Array.make fresh (-1)
      and values = Array.make fresh v in
      Array.blit h.keys 0 keys 0 h.size;
      Array.blit h.ids 0 ids 0 h.size;
      Array.blit h.values 0 values 0 h.size;
      h.keys <- keys;
      h.ids <- ids;
      h.values <- values
    end

  (* Store the entry at slot [i]. *)
  let[@inline] set h i ts id v =
    h.keys.(i) <- ts;
    h.ids.(i) <- id;
    h.values.(i) <- v

  let[@inline] move h ~src ~dst = set h dst h.keys.(src) h.ids.(src) h.values.(src)

  let add h ts ~id v =
    let found = find h ts 0 in
    if found >= 0 then begin
      h.ids.(found) <- id;
      h.values.(found) <- v
    end
    else begin
      grow h v;
      let i = ref h.size in
      let continue = ref true in
      while !continue && !i > 0 do
        let parent = (!i - 1) / 2 in
        if compare ts h.keys.(parent) < 0 then begin
          move h ~src:parent ~dst:!i;
          i := parent
        end
        else continue := false
      done;
      set h !i ts id v;
      h.size <- h.size + 1
    end

  (* Remove the root: move the last entry into the hole and sift it
     down. *)
  let remove_min h =
    let last = h.size - 1 in
    let ts = h.keys.(last) and id = h.ids.(last) and v = h.values.(last) in
    h.size <- last;
    h.keys.(last) <- none;
    if last > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 in
        if left >= last then continue := false
        else begin
          let right = left + 1 in
          let child =
            if right < last && compare h.keys.(right) h.keys.(left) < 0 then
              right
            else left
          in
          if compare h.keys.(child) ts < 0 then begin
            move h ~src:child ~dst:!i;
            i := child
          end
          else continue := false
        end
      done;
      set h !i ts id v
    end

  let drain h ~upto f x y =
    while h.size > 0 && compare h.keys.(0) upto <= 0 do
      let ts = h.keys.(0) and id = h.ids.(0) and v = h.values.(0) in
      remove_min h;
      f x y ts id v
    done
end
