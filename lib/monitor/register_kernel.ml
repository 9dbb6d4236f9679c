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

   One table maps each written value to its write's position in the
   invocation order; the reads are grouped per write block by one
   stable sort, and the suffix minima are positions too. *)

module V = Spec.Adt_view

let kind = V.Register

let check (records : Record.t array) : Record.outcome =
  let n = Array.length records in
  let writes = Record.Itbl.create 97 in
  let bad = ref None in
  let flag o = if !bad = None then bad := Some o in
  let reads_initial = ref false in
  Array.iteri
    (fun i (r : Record.t) ->
      match r.obs with
      | V.Put v ->
          if Record.Itbl.mem writes v then
            flag
              (Record.Unknown
                 (Printf.sprintf "value %d written twice; ambiguous" v))
          else Record.Itbl.add writes v i
      | V.Peek (Some v) -> if v = 0 then reads_initial := true
      | _ ->
          flag
            (Record.Unknown
               (Printf.sprintf "observation %s outside register vocabulary"
                  (V.obs_to_string r.obs))))
    records;
  if !bad = None && !reads_initial && Record.Itbl.mem writes 0 then
    (* reads of 0 could bind to the initial value or to the write *)
    flag (Record.Unknown "value 0 both initial and written; ambiguous");
  match !bad with
  | Some o -> o
  | None -> (
      let start i = records.(i).Record.start
      and finish i = records.(i).Record.finish in
      (* writes sorted by invocation; the table now maps each written
         value to its position here *)
      let ws =
        Record.sorted_ids n
          ~keep:(fun i ->
            match records.(i).obs with V.Put _ -> true | _ -> false)
          (fun a b -> Rat.compare (start a) (start b))
      in
      let k = Array.length ws in
      Array.iteri
        (fun j w ->
          match records.(w).obs with
          | V.Put v -> Record.Itbl.replace writes v j
          | _ -> ())
        ws;
      (* [suffix.(i)]: the position in [ws.(i ..)] of the earliest
         response; [-1] past the end *)
      let suffix = Array.make (k + 1) (-1) in
      for i = k - 1 downto 0 do
        suffix.(i) <-
          (let s = suffix.(i + 1) in
           if s >= 0 && Rat.le (finish ws.(s)) (finish ws.(i)) then s else i)
      done;
      (* least position with start > t *)
      let first_invoked_after t =
        let lo = ref 0 and hi = ref k in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if Rat.le (start ws.(mid)) t then lo := mid + 1 else hi := mid
        done;
        !lo
      in
      (* [block.(i)]: the write position of read [i]; [-1] for a read of
         the initial value *)
      let block = Array.make n (-1) in
      let check_read i (r : Record.t) v =
        match Record.Itbl.find writes v with
        | exception Not_found ->
            if v = 0 then (
              (* initial value: stale iff any write finishes before r starts *)
              let j = suffix.(0) in
              if j >= 0 && Rat.lt (finish ws.(j)) r.start then
                flag
                  (Record.violation ~kind ~rule:"register.stale"
                     [ r; records.(ws.(j)) ]
                     "read of the initial value after a completed write"))
            else
              flag
                (Record.violation ~kind ~rule:"register.fresh" [ r ]
                   (Printf.sprintf "read returned %d, never written" v))
        | b ->
            block.(i) <- b;
            let w = records.(ws.(b)) in
            if Rat.lt r.finish w.start then
              flag
                (Record.violation ~kind ~rule:"register.before-write" [ r; w ]
                   (Printf.sprintf "read returned %d entirely before its write"
                      v))
            else
              let j = suffix.(first_invoked_after w.finish) in
              if j >= 0 && Rat.lt (finish ws.(j)) r.start then
                flag
                  (Record.violation ~kind ~rule:"register.stale"
                     [ r; w; records.(ws.(j)) ]
                     (Printf.sprintf "read returned %d after a forced overwrite"
                        v))
      in
      Array.iteri
        (fun i (r : Record.t) ->
          match r.obs with V.Peek (Some v) -> check_read i r v | _ -> ())
        records;
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
            Record.sorted_ids n
              ~keep:(fun i ->
                match records.(i).obs with V.Peek (Some _) -> true | _ -> false)
              (fun a b ->
                match Int.compare block.(a) block.(b) with
                | 0 -> Rat.compare (finish a) (finish b)
                | c -> c)
          in
          let first = Array.make (k + 2) 0 in
          Array.iter
            (fun i -> first.(block.(i) + 2) <- first.(block.(i) + 2) + 1)
            reads;
          for g = 1 to k + 1 do
            first.(g) <- first.(g) + first.(g - 1)
          done;
          let reads_of g f =
            for j = first.(g) to first.(g + 1) - 1 do
              f reads.(j)
            done
          in
          let fkey = Array.copy ws and skey = Array.copy ws in
          for b = 0 to k - 1 do
            reads_of (b + 1) (fun i ->
                if Rat.lt (finish i) (finish fkey.(b)) then fkey.(b) <- i;
                if Rat.lt (start skey.(b)) (start i) then skey.(b) <- i)
          done;
          let init_ok =
            first.(1) = 0
            ||
            let s = ref (start reads.(0)) in
            reads_of 0 (fun i -> s := Rat.max !s (start i));
            Array.for_all (fun f -> not (Rat.lt (finish f) !s)) fkey
          in
          if not init_ok then
            Record.Unknown
              "a write block is forced before a read of the initial value"
          else
            match
              Extension.solve ~records ~m:k
                ~relations:[ { Extension.f = fkey; s = skey } ]
                ~edges:(Extension.Edges.create ())
                (fun a b -> Rat.compare (finish fkey.(a)) (finish fkey.(b)))
            with
            | None ->
                Record.Unknown
                  "no write order satisfies the forced precedences"
            | Some idx ->
                let out = Array.make n 0 and len = ref 0 in
                let emit i =
                  out.(!len) <- records.(i).id;
                  incr len
                in
                reads_of 0 emit;
                Array.iter
                  (fun b ->
                    emit ws.(b);
                    reads_of (b + 1) emit)
                  idx;
                Record.Order (Array.to_list out)))
