(* Register monitor: O(n log n) decrease-and-conquer over an
   unambiguous history of writes ([Put v], each value at most once) and
   reads ([Peek (Some v)]).

   Rejections are backed by necessary conditions:
   - [register.fresh]       a read of a value never written (and not the
                            initial value 0);
   - [register.before-write] a read returning [v] entirely before the
                            write of [v];
   - [register.stale]       a read returning [v] although some other
                            write is forced strictly between the write
                            of [v] and the read — the register provably
                            no longer holds [v].

   The stale scan sorts writes by invocation and keeps a suffix minimum
   of response times: a read of [v] is stale iff the earliest-finishing
   write invoked after [finish(write v)] finishes before the read
   starts.  Reads of the initial value 0 use a virtual write preceding
   everything.

   Acceptance is certificate-backed: writes ordered by response time,
   each followed by its reads (by response time), form a candidate
   linearization that the dispatcher re-verifies by replay and a
   real-time sweep.

   Values are grouped into classes by one sort ({!Record.value_classes});
   each class knows its write's position in the invocation order; the
   reads are grouped per write block by one stable sort, and the
   suffix minima are positions too. *)

module V = Spec.Adt_view
module Tag = Record.Tag

let kind = V.Register

(* The operations the value classes group: writes and reads. *)
let valued (v : Record.view) i =
  match Record.tag v i with Tag.Put | Tag.Peek -> true | _ -> false

let is_write (v : Record.view) i =
  match Record.tag v i with Tag.Put -> true | _ -> false

let is_read (v : Record.view) i =
  match Record.tag v i with Tag.Peek -> true | _ -> false

(* The least position in [ws] (writes sorted by invocation) whose
   write is invoked after [t]. *)
let first_invoked_after (v : Record.view) ws t =
  let lo = ref 0 and hi = ref (Array.length ws) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Rat.le v.start.(ws.(mid)) t then lo := mid + 1 else hi := mid
  done;
  !lo

(* The first pass: each class's write, or the reason the history is
   ambiguous or outside the register vocabulary. *)
let writes (v : Record.view) cls write =
  let bad = ref None in
  let reads_initial = ref false and zero_written = ref false in
  for i = 0 to v.n - 1 do
    if Option.is_none !bad then
      match Record.tag v i with
      | Tag.Put ->
          let c = cls.(i) in
          if write.(c) >= 0 then
            let x = v.value.(i) in
            bad :=
              Some
                (Record.Unknown
                   (lazy
                     (Printf.sprintf "value %d written twice; ambiguous" x)))
          else begin
            write.(c) <- i;
            if v.value.(i) = 0 then zero_written := true
          end
      | Tag.Peek -> if v.value.(i) = 0 then reads_initial := true
      | _ ->
          bad :=
            Some
              (Record.Unknown
                 (lazy
                   (Printf.sprintf "observation %s outside register vocabulary"
                      (V.obs_to_string (Record.obs v i)))))
  done;
  if Option.is_none !bad && !reads_initial && !zero_written then
    (* reads of 0 could bind to the initial value or to the write *)
    Some (Record.Unknown (lazy "value 0 both initial and written; ambiguous"))
  else !bad

(* Read [r] of value [x]: its write position in [block.(r)], or the
   violation it is.  [write] maps each class to its write's position in
   [ws], and [suffix.(i)] is the position in [ws.(i ..)] of the
   earliest response. *)
let check_read (v : Record.view) ~cls ~write ~ws ~suffix ~block r x =
  let start = v.start and finish = v.finish in
  match write.(cls.(r)) with
  | -1 ->
      if x = 0 then
        (* initial value: stale iff any write finishes before r starts *)
        let j = suffix.(0) in
        if j >= 0 && Rat.lt finish.(ws.(j)) start.(r) then
          Some
            (Record.violation ~kind ~rule:"register.stale" v [ r; ws.(j) ]
               "read of the initial value after a completed write")
        else None
      else
        Some
          (Record.violation ~kind ~rule:"register.fresh" v [ r ]
             (Printf.sprintf "read returned %d, never written" x))
  | b ->
      block.(r) <- b;
      let w = ws.(b) in
      if Rat.lt finish.(r) start.(w) then
        Some
          (Record.violation ~kind ~rule:"register.before-write" v [ r; w ]
             (Printf.sprintf "read returned %d entirely before its write" x))
      else
        let j = suffix.(first_invoked_after v ws finish.(w)) in
        if j >= 0 && Rat.lt finish.(ws.(j)) start.(r) then
          Some
            (Record.violation ~kind ~rule:"register.stale" v
               [ r; w; ws.(j) ]
               (Printf.sprintf "read returned %d after a forced overwrite" x))
        else None

let check (v : Record.view) : Record.outcome =
  let n = v.n in
  let count, cls = Record.value_classes v ~keep:(valued v) in
  (* per class: its write, then that write's position in [ws] *)
  let write = Array.make count (-1) in
  match writes v cls write with
  | Some o -> o
  | None -> (
      let start i = v.start.(i) and finish i = v.finish.(i) in
      (* writes sorted by invocation; [write] now maps each class to
         its write's position here *)
      let ws =
        Record.sorted_ids n ~keep:(is_write v) (fun a b ->
            Rat.compare (start a) (start b))
      in
      let k = Array.length ws in
      for j = 0 to k - 1 do
        write.(cls.(ws.(j))) <- j
      done;
      (* [suffix.(i)]: the position in [ws.(i ..)] of the earliest
         response; [-1] past the end *)
      let suffix = Array.make (k + 1) (-1) in
      for i = k - 1 downto 0 do
        suffix.(i) <-
          (let s = suffix.(i + 1) in
           if s >= 0 && Rat.le (finish ws.(s)) (finish ws.(i)) then s else i)
      done;
      (* [block.(i)]: the write position of read [i]; [-1] for a read of
         the initial value *)
      let block = Array.make n (-1) in
      let bad = ref None in
      for i = 0 to n - 1 do
        if Option.is_none !bad then
          match Record.tag v i with
          | Tag.Peek ->
              bad := check_read v ~cls ~write ~ws ~suffix ~block i v.value.(i)
          | _ -> ()
      done;
      match !bad with
      | Some o -> o
      | None -> (
          (* certificate: each write and its reads form one atomic
             block; the block order is a linear extension of the single
             forced-precedence relation (min block finish vs max block
             start), with the initial-value reads emitted first.  The
             reads are sorted once by (block, response): group [0] holds
             the initial-value reads and group [b + 1] the reads of
             block [b], at [reads.(first.(g)) .. reads.(first.(g + 1) - 1)]. *)
          let reads =
            Record.sorted_ids n ~keep:(is_read v) (fun a b ->
                match Int.compare block.(a) block.(b) with
                | 0 -> Rat.compare (finish a) (finish b)
                | c -> c)
          in
          let first = Array.make (k + 2) 0 in
          for j = 0 to Array.length reads - 1 do
            let g = block.(reads.(j)) + 2 in
            first.(g) <- first.(g) + 1
          done;
          for g = 1 to k + 1 do
            first.(g) <- first.(g) + first.(g - 1)
          done;
          let fkey = Array.copy ws and skey = Array.copy ws in
          for b = 0 to k - 1 do
            for j = first.(b + 1) to first.(b + 2) - 1 do
              let i = reads.(j) in
              if Rat.lt (finish i) (finish fkey.(b)) then fkey.(b) <- i;
              if Rat.lt (start skey.(b)) (start i) then skey.(b) <- i
            done
          done;
          let init_ok =
            first.(1) = 0
            ||
            let s = ref (start reads.(0)) in
            for j = 0 to first.(1) - 1 do
              s := Rat.max !s (start reads.(j))
            done;
            let ok = ref true in
            for b = 0 to k - 1 do
              if Rat.lt (finish fkey.(b)) !s then ok := false
            done;
            !ok
          in
          if not init_ok then
            Record.Unknown
              (lazy
                "a write block is forced before a read of the initial value")
          else
            match
              Extension.solve v ~m:k
                ~relations:[ { Extension.f = fkey; s = skey } ]
                ~edges:(Extension.Edges.create ())
                (fun a b -> Rat.compare (finish fkey.(a)) (finish fkey.(b)))
            with
            | None ->
                Record.Unknown
                  (lazy "no write order satisfies the forced precedences")
            | Some idx ->
                (* the initial-value reads, then each block's write and
                   its reads *)
                let out = Array.make n 0 in
                let len = first.(1) in
                Array.blit reads 0 out 0 len;
                let len = ref len in
                for j = 0 to k - 1 do
                  let b = idx.(j) in
                  out.(!len) <- ws.(b);
                  incr len;
                  let g = first.(b + 1) and h = first.(b + 2) in
                  Array.blit reads g out !len (h - g);
                  len := !len + (h - g)
                done;
                Record.Order out))
