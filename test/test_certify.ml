(* The certify path: the protocols' own orders and what a call
   allocates.

   Algorithm 1 and the total-order baseline count timestamps in the
   run's quanta ([inv_time * per + offset]); the references below count
   them in model units with fractions ([inv_time + offset / per]), the
   timestamps' definition, and the two must give the same permutation
   on every history.  The centralized order, built with arrays, must
   equal a direct list computation of the apply matching.  The
   allocation group pins what one call allocates on fixed
   seven-operation histories. *)

let rat = Rat.make

type ('i, 'r) op = ('i, 'r) Sim.Trace.operation

(* The indices [0, n) sorted by (time, process, late, index). *)
let reference_order n ~time ~proc ~late =
  List.init n Fun.id
  |> List.sort (fun a b ->
         let c = Rat.compare (time a) (time b) in
         if c <> 0 then c
         else
           let c = Int.compare (proc a) (proc b) in
           if c <> 0 then c
           else
             let c = Bool.compare (late a) (late b) in
             if c <> 0 then c else Int.compare a b)
  |> Array.of_list

(* A random history of [T] from [seed]: up to 12 operations on up to 4
   processes, invoked at multiples of [1/per] in a narrow window so
   that timestamps tie often; offsets are whole quanta of [1/per]. *)
module History (T : Spec.Data_type.S) = struct
  type t = {
    ops : (T.invocation, T.response) op array;
    offsets : Rat.t array;
    per : int;
    backdate : int;  (** quanta *)
  }

  let make seed =
    let rng = Random.State.make [| seed |] in
    let procs = 1 + Random.State.int rng 4 in
    let per = 1 + Random.State.int rng 12 in
    let ops =
      Array.init (Random.State.int rng 13) (fun _ ->
          let inv = T.gen_invocation rng in
          let k = Random.State.int rng 12 in
          {
            Sim.Trace.proc = Random.State.int rng procs;
            inv;
            resp = snd (T.apply T.initial inv);
            inv_time = rat k per;
            resp_time = rat (k + 1 + Random.State.int rng 4) per;
          })
    in
    let offsets =
      Array.init procs (fun _ -> Rat.of_int (Random.State.int rng 13 - 6))
    in
    { ops; offsets; per; backdate = Random.State.int rng (3 * per) }

  let print h =
    Printf.sprintf "per=%d backdate=%d offsets=[%s] ops=[%s]" h.per h.backdate
      (String.concat "; " (Array.to_list (Array.map Rat.to_string h.offsets)))
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun (o : _ op) ->
                 Printf.sprintf "p%d %s@%s" o.proc (T.op_of o.inv)
                   (Rat.to_string o.inv_time))
               h.ops)))
end

module Orders (T : Spec.Data_type.S) = struct
  module H = History (T)
  module Sem = Spec.Data_type.Semantics (T)
  module W = Core.Wtlw.Make (T)
  module B = Core.Tob.Make (T)

  let timing ~backdate =
    {
      Core.Wtlw.accessor_wait = Rat.zero;
      accessor_backdate = backdate;
      mutator_ack_wait = Rat.zero;
      add_wait = Rat.zero;
      execute_wait = Rat.zero;
    }

  (* Construction 1 in model units: the offsets and the backdate are
     divided down to the operations' time unit. *)
  let wtlw_reference (h : H.t) =
    let accessor i =
      Sem.kind_of h.ops.(i).inv = Spec.Op_kind.Pure_accessor
    in
    reference_order (Array.length h.ops)
      ~time:(fun i ->
        let o = h.ops.(i) in
        let local =
          Rat.add o.inv_time (Rat.div_int h.offsets.(o.proc) h.per)
        in
        if accessor i then Rat.sub local (rat h.backdate h.per) else local)
      ~proc:(fun i -> h.ops.(i).proc)
      ~late:accessor

  let tob_reference (h : H.t) =
    reference_order (Array.length h.ops)
      ~time:(fun i ->
        let o = h.ops.(i) in
        Rat.add o.inv_time (Rat.div_int h.offsets.(o.proc) h.per))
      ~proc:(fun i -> h.ops.(i).proc)
      ~late:(fun _ -> false)

  let arbitrary =
    QCheck.make ~print:(fun s -> H.print (H.make s)) QCheck.Gen.int

  let tests =
    [
      QCheck.Test.make ~count:500
        ~name:(T.name ^ ": algorithm 1 in quanta = in model units")
        arbitrary
        (fun seed ->
          let h = H.make seed in
          W.linearization
            ~timing:(timing ~backdate:(rat h.backdate h.per))
            ~offsets:h.offsets ~per:h.per h.ops
          = wtlw_reference h);
      QCheck.Test.make ~count:500
        ~name:(T.name ^ ": total order in quanta = in model units")
        arbitrary
        (fun seed ->
          let h = H.make seed in
          B.linearization ~offsets:h.offsets ~per:h.per h.ops
          = tob_reference h);
    ]
end

module Reg_orders = Orders (Spec.Register)
module Queue_orders = Orders (Spec.Fifo_queue)

(* --- the centralized order ----------------------------------------- *)

module Q = Spec.Fifo_queue
module C = Core.Centralized.Make (Q)

(* The centralized order as lists: each apply, oldest first, takes its
   process's next unmatched operation. *)
let centralized_reference (applied : Core.Centralized.log) ~key
    (ops : (Q.invocation, Q.response) op array) =
  let procs =
    Array.fold_left (fun m (o : _ op) -> max m (o.proc + 1)) 0 ops
  in
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

(* Up to 10 operations on up to 4 processes, and a log of up to 3 keys
   whose applies name processes up to 2 past the last one with an
   operation, more often than it has operations; the key read may lie
   past the log. *)
let centralized_case seed =
  let rng = Random.State.make [| seed |] in
  let procs = 1 + Random.State.int rng 4 in
  let ops =
    Array.init (Random.State.int rng 11) (fun _ ->
        {
          Sim.Trace.proc = Random.State.int rng procs;
          inv = Q.Dequeue;
          resp = Q.Got None;
          inv_time = Rat.zero;
          resp_time = Rat.one;
        })
  in
  let log =
    Array.init (Random.State.int rng 4) (fun _ ->
        List.init (Random.State.int rng 15) (fun _ ->
            Random.State.int rng (procs + 2)))
  in
  (ops, log, Random.State.int rng 5)

let print_centralized seed =
  let ops, log, key = centralized_case seed in
  Printf.sprintf "key=%d procs=[%s] log=[%s]" key
    (String.concat ";"
       (Array.to_list (Array.map (fun (o : _ op) -> string_of_int o.proc) ops)))
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun l -> String.concat ";" (List.map string_of_int l))
             log)))

let centralized_test =
  QCheck.Test.make ~count:1000 ~name:"centralized: arrays = lists"
    (QCheck.make ~print:print_centralized QCheck.Gen.int)
    (fun seed ->
      let ops, log, key = centralized_case seed in
      C.linearization log ~key ops = centralized_reference log ~key ops)

(* The edge cases by name: an apply with no operation left to match, a
   process with applies but no operation, one with operations but no
   apply, and a key past the log. *)
let test_centralized_edges () =
  let op proc =
    {
      Sim.Trace.proc;
      inv = Q.Dequeue;
      resp = Q.Got None;
      inv_time = Rat.zero;
      resp_time = Rat.one;
    }
  in
  let ops = [| op 0; op 2; op 0; op 2 |] in
  (* apply order: 2, 0, 5, 2, 1, 2, 0, 0; process 1 has no operation,
     process 5 none either, and the third apply of 2 and of 0 none
     left *)
  let log = [| []; [ 0; 0; 2; 1; 2; 5; 0; 2 ] |] in
  let check name key expected =
    Alcotest.(check (array int)) name expected (C.linearization log ~key ops);
    Alcotest.(check (array int))
      (name ^ " (reference)") expected
      (centralized_reference log ~key ops)
  in
  check "unmatched and absent processes skipped" 1 [| 1; 0; 3; 2 |];
  check "empty key" 0 [||];
  check "key past the log" 7 [||];
  Alcotest.(check (array int))
    "no operations" [||]
    (C.linearization log ~key:1 [||])

(* --- allocation ---------------------------------------------------- *)

let words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let pin name pinned measured =
  if measured > pinned then
    Alcotest.failf "%s: %.0f words, pinned at %.0f" name measured pinned

module Sem_reg = Spec.Data_type.Semantics (Spec.Register)
module Sem_queue = Spec.Data_type.Semantics (Q)
module Pair = Spec.Product.Make (Spec.Register) (Q)
module Sem_pair = Spec.Data_type.Semantics (Pair)

let test_kind_of_allocation () =
  let invs = [| Spec.Register.Read; Spec.Register.Write 3 |] in
  let queue = [| Q.Enqueue 1; Q.Dequeue; Q.Peek |] in
  pin "kind_of on a register" 0.
    (words (fun () ->
         for i = 1 to 100 do
           ignore (Sys.opaque_identity (Sem_reg.kind_of invs.(i land 1)))
         done));
  pin "kind_of on a queue" 0.
    (words (fun () ->
         for i = 1 to 100 do
           ignore (Sys.opaque_identity (Sem_queue.kind_of queue.(i mod 3)))
         done));
  (* a product names its operations with its sides' prefixes, built
     once *)
  let pair = [| Pair.Left Spec.Register.Read; Pair.Right Q.Dequeue |] in
  pin "kind_of on a product" 0.
    (words (fun () ->
         for i = 1 to 100 do
           ignore (Sys.opaque_identity (Sem_pair.kind_of pair.(i land 1)))
         done))

(* Seven queue operations on three processes, in halves of a time unit:
   enqueue 1, 2 and 3, take them in order, then find the queue empty.
   With [twice] the second enqueue inserts 1 again, so the history is
   ambiguous and the kernel leaves it to the supplied order. *)
let seven ~twice =
  let op proc inv resp s =
    { Sim.Trace.proc; inv; resp; inv_time = rat s 2; resp_time = rat (s + 1) 2 }
  in
  let second = if twice then 1 else 2 in
  [|
    op 0 (Q.Enqueue 1) Q.Ack 0;
    op 1 (Q.Enqueue second) Q.Ack 2;
    op 2 Q.Dequeue (Q.Got (Some 1)) 4;
    op 0 (Q.Enqueue 3) Q.Ack 6;
    op 1 Q.Dequeue (Q.Got (Some second)) 8;
    op 2 Q.Dequeue (Q.Got (Some 3)) 10;
    op 0 Q.Dequeue (Q.Got None) 12;
  |]

module W = Core.Wtlw.Make (Q)
module B = Core.Tob.Make (Q)
module M = Monitor.Make (Q)

(* Each protocol's order on the seven operations, in quanta of 1/2:
   the times, the ids and the comparison (Algorithm 1 and the total
   order), or the per-process grouping and the order (centralized). *)
let test_order_allocation () =
  let ops = seven ~twice:false in
  let offsets = [| Rat.zero; Rat.one; Rat.of_int (-1) |] in
  let timing = Reg_orders.timing ~backdate:Rat.one in
  pin "algorithm 1's order" 40.
    (words (fun () -> W.linearization ~timing ~offsets ~per:2 ops));
  pin "the total order" 33.
    (words (fun () -> B.linearization ~offsets ~per:2 ops));
  let log = [| [ 0; 2; 1; 2; 0; 1; 0 ] |] in
  pin "the centralized order" 25.
    (words (fun () -> C.linearization log ~key:0 ops))

(* [check_array] on the seven operations: certified by the queue kernel,
   and, inserting 1 twice, by the supplied order after the kernel
   declines. *)
let test_check_allocation () =
  let clean = seven ~twice:false and ambiguous = seven ~twice:true in
  let r = M.check_array clean in
  Alcotest.(check string)
    "kernel-certified" "queue monitor"
    (Monitor.method_to_string r.method_);
  pin "kernel-certified check" 684.
    (words (fun () -> M.check_array clean));
  let lin = Array.init 7 Fun.id in
  let order _ = lin in
  let r = M.check_array ~order ambiguous in
  Alcotest.(check string)
    "order-certified" "protocol-order"
    (Monitor.method_to_string r.method_);
  pin "order-certified check" 293.
    (words (fun () -> M.check_array ~order ambiguous))

let () =
  Alcotest.run "certify"
    [
      ( "protocol orders",
        List.map QCheck_alcotest.to_alcotest
          (Reg_orders.tests @ Queue_orders.tests @ [ centralized_test ])
        @ [
            Alcotest.test_case "centralized edge cases" `Quick
              test_centralized_edges;
          ] );
      ( "allocation",
        [
          Alcotest.test_case "kind_of allocates nothing" `Quick
            test_kind_of_allocation;
          Alcotest.test_case "protocol orders" `Quick test_order_allocation;
          Alcotest.test_case "check_array on seven operations" `Quick
            test_check_allocation;
        ] );
    ]
