(* Per-type monitor tests: agreement with Wing-Gong on random
   seed-deterministic histories (clean and with injected violations),
   hand-written adversarial histories with the expected rejection
   rules, and the Wing-Gong budget payload. *)

let rat = Rat.make

(* ---------- agreement with Wing-Gong on random histories ---------- *)

(* Histories are kept small so the exponential fallback terminates
   quickly even on rejections; the monitors themselves are exercised at
   scale in [test_specialized_scale] and the benchmark. *)
(* Floor every invocation and ceil every response to an integer.
   Widening intervals keeps a history linearizable, and the generator's
   jitter is below 2 with same-process operations at least 5 apart, so
   each process's operations stay disjoint.  Equal endpoints become
   common, which exercises every tie in the kernels' sorts. *)
let widen (o : ('i, 'r) Sim.Trace.operation) =
  let floor q =
    let n = Rat.num q and d = Rat.den q in
    if n >= 0 then n / d else -((-n + d - 1) / d)
  in
  let ceil q = -floor (Rat.neg q) in
  {
    o with
    inv_time = Rat.of_int (floor o.inv_time);
    resp_time = Rat.of_int (ceil o.resp_time);
  }

module Agree (T : Spec.Data_type.S) = struct
  module M = Monitor.Make (T)

  let run ?(tied = false) ~seeds ~n () =
    for seed = 0 to seeds - 1 do
      let clean = M.generate ~seed ~n () in
      let clean = if tied then List.map widen clean else clean in
      let r = M.check clean in
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: clean history accepted" T.name seed)
        true r.M.linearizable;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: wing-gong accepts too" T.name seed)
        true
        (M.Fallback.is_linearizable clean);
      let bad, injected = M.corrupt clean in
      if injected then
        let fast = (M.check bad).M.linearizable in
        let slow = M.Fallback.is_linearizable bad in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: corrupted verdicts agree" T.name seed)
          slow fast
    done
end

let test_agreement_register () =
  let module A = Agree (Spec.Register) in
  A.run ~seeds:12 ~n:16 ()

let test_agreement_queue () =
  let module A = Agree (Spec.Fifo_queue) in
  A.run ~seeds:12 ~n:16 ()

let test_agreement_stack () =
  let module A = Agree (Spec.Stack_type) in
  A.run ~seeds:12 ~n:16 ()

let test_agreement_set () =
  let module A = Agree (Spec.Set_type) in
  A.run ~seeds:12 ~n:16 ()

let test_agreement_pqueue () =
  let module A = Agree (Spec.Priority_queue) in
  A.run ~seeds:12 ~n:16 ()

let test_agreement_tied () =
  (let module A = Agree (Spec.Register) in
   A.run ~tied:true ~seeds:12 ~n:16 ());
  (let module A = Agree (Spec.Fifo_queue) in
   A.run ~tied:true ~seeds:12 ~n:16 ());
  (let module A = Agree (Spec.Stack_type) in
   A.run ~tied:true ~seeds:12 ~n:16 ());
  (let module A = Agree (Spec.Set_type) in
   A.run ~tied:true ~seeds:12 ~n:16 ());
  let module A = Agree (Spec.Priority_queue) in
  A.run ~tied:true ~seeds:12 ~n:16 ()

(* ---------- the fast path actually runs (and scales) -------------- *)

module Fast (T : Spec.Data_type.S) = struct
  module M = Monitor.Make (T)

  let kernel_decided label (r : M.result) =
    Alcotest.(check bool)
      (T.name ^ ": " ^ label ^ " decided without wing-gong")
      true
      (match (r.M.method_, r.M.fallback) with
      | Monitor.Specialized _, None -> true
      | _ -> false)

  (* Clean and corrupted, at a size Wing-Gong cannot reach: the kernel
     alone must accept the one and reject the other with a witness. *)
  let run ~n () =
    let clean = M.generate ~seed:1 ~n () in
    let r = M.check clean in
    Alcotest.(check bool)
      (T.name ^ ": large clean history accepted") true r.M.linearizable;
    kernel_decided "clean history" r;
    let bad, injected = M.corrupt clean in
    Alcotest.(check bool) (T.name ^ ": violation injected") true injected;
    let r = M.check bad in
    Alcotest.(check bool)
      (T.name ^ ": large corrupted history rejected") false r.M.linearizable;
    kernel_decided "corrupted history" r;
    Alcotest.(check bool)
      (T.name ^ ": reject carries a witness") true (r.M.violation <> None)
end

let test_specialized_scale () =
  (let module F = Fast (Spec.Register) in
   F.run ~n:2000 ());
  (let module F = Fast (Spec.Fifo_queue) in
   F.run ~n:2000 ());
  (let module F = Fast (Spec.Stack_type) in
   F.run ~n:2000 ());
  (let module F = Fast (Spec.Set_type) in
   F.run ~n:2000 ());
  let module F = Fast (Spec.Priority_queue) in
  F.run ~n:2000 ()

let test_queue_20k () =
  let module M = Monitor.Make (Spec.Fifo_queue) in
  let r = M.check (M.generate ~seed:7 ~n:20_000 ()) in
  Alcotest.(check bool) "20k-op queue accepted" true r.M.linearizable;
  Alcotest.(check bool)
    "via the queue monitor" true
    (r.M.method_ = Monitor.Specialized Spec.Adt_view.Queue)

(* A draining history: sequential [put v], [take -> v], [take -> empty]
   on integer times.  Every empty observation needs its coverage
   decided against every value put before it, which cost the
   rescan-from-zero coverage check O(empties x values) time and
   allocation (about 11 850 minor words per operation at 30 000
   operations).  The cover-chain check allocates nothing per
   observation, so the whole certification stays within a small
   per-operation budget. *)
module Drain (T : Spec.Data_type.S) = struct
  module M = Monitor.Make (T)

  let history ~n : M.op list =
    let vw = Option.get M.viewer in
    let take = Option.get vw.Spec.Adt_view.take in
    let st = ref T.initial in
    List.init n (fun i ->
        let inv = if i mod 3 = 0 then vw.put ((i / 3) + 1) else take in
        let st', resp = T.apply !st inv in
        st := st';
        let t = Rat.of_int (2 * i) in
        {
          Sim.Trace.proc = i mod 4;
          inv;
          resp;
          inv_time = t;
          resp_time = Rat.add t Rat.one;
        })

  let run () =
    let n = 30_000 in
    let ops = history ~n in
    let w0 = Gc.minor_words () in
    let r = M.check ops in
    let per_op = (Gc.minor_words () -. w0) /. float_of_int n in
    Alcotest.(check bool) (T.name ^ ": drain accepted") true r.M.linearizable;
    Alcotest.(check bool)
      (T.name ^ ": by its own monitor, no fallback")
      true
      (match (r.M.method_, r.M.fallback) with
      | Monitor.Specialized _, None -> true
      | _ -> false);
    if per_op > 300. then
      Alcotest.failf "%s: %.1f minor words per operation (budget 300)" T.name
        per_op
end

let test_drain_cliff () =
  (let module D = Drain (Spec.Fifo_queue) in
   D.run ());
  (let module D = Drain (Spec.Stack_type) in
   D.run ());
  let module D = Drain (Spec.Priority_queue) in
  D.run ()

(* [Record.empty_uncoverable] against the definition, on random small
   classes with integer times (so endpoints tie often).  A closed
   [s, f] is covered by the open covers (put.finish, take.start) iff
   [s] and every cover close inside [s, f] lie strictly inside some
   cover: the leftmost uncovered point, if any, is one of those.  A
   reported violation must also be justified by its own witness: the
   covers its culprits name cover its empty observation. *)
let test_empty_coverage_reference () =
  let module R = Monitor.Record in
  let kind = Spec.Adt_view.Queue in
  let inside covers x =
    List.exists
      (fun (lo, hi) ->
        Rat.lt lo x && match hi with None -> true | Some h -> Rat.lt x h)
      covers
  in
  let covered covers (e : R.t) =
    inside covers e.start
    && List.for_all
         (function
           | _, Some h when Rat.le e.start h && Rat.le h e.finish ->
               inside covers h
           | _ -> true)
         covers
  in
  let covers_of (ops : R.t list) =
    let rec go = function
      | [] -> []
      | ({ R.obs = Put v; _ } as p) :: ({ R.obs = Take (Some w); _ } as t)
        :: rest
        when v = w ->
          (p.finish, Some t.start) :: go rest
      | ({ R.obs = Put _; _ } as p) :: rest -> (p.finish, None) :: go rest
      | _ :: rest -> go rest
    in
    go ops
  in
  for seed = 0 to 1999 do
    let rng = Random.State.make [| 0xc0e4; seed |] in
    let time lo span = Rat.of_int (lo + Random.State.int rng (span + 1)) in
    let records = ref [] in
    let add obs start finish =
      let id = List.length !records in
      records := { R.id; proc = id; obs; start; finish } :: !records
    in
    for v = 1 to 1 + Random.State.int rng 5 do
      let s = Random.State.int rng 16 in
      let put_finish = time s 4 in
      add (Put v) (Rat.of_int s) put_finish;
      if Random.State.bool rng then begin
        let ts = time s 8 in
        add (Take (Some v)) ts (Rat.max put_finish (time (Rat.num ts) 4))
      end
    done;
    for _ = 1 to 1 + Random.State.int rng 3 do
      let s = Random.State.int rng 20 in
      add (Take None) (Rat.of_int s) (time s 6)
    done;
    let records = Array.of_list (List.rev !records) in
    match R.classify ~kind (R.of_records records) with
    | Error _ -> Alcotest.failf "seed %d: a well-formed history was flagged" seed
    | Ok cl ->
        let all =
          covers_of
            (List.filter
               (fun (r : R.t) ->
                 match r.obs with Put _ | Take (Some _) -> true | _ -> false)
               (Array.to_list records))
        in
        let expected =
          List.exists
            (fun (r : R.t) -> r.obs = Take None && covered all r)
            (Array.to_list records)
        in
        let got = R.empty_uncoverable ~kind cl in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: same verdict as the definition" seed)
          expected (got <> None);
        (match got with
        | Some (R.Violation v) -> (
            let ops =
              List.map
                (fun (c : Monitor.Violation.culprit) -> records.(c.index))
                v.culprits
            in
            match ops with
            | e :: chain ->
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: the witness covers its observation"
                     seed)
                  true
                  (covered (covers_of chain) e)
            | [] -> Alcotest.fail "empty witness")
        | Some _ -> Alcotest.fail "coverage gave a non-violation outcome"
        | None -> ())
  done

(* [Record.stable_sort_ints] is a stable sort: on keys with many ties
   it orders like [Array.stable_sort], at lengths around its run of 8
   and its merge widths. *)
let test_stable_sort () =
  let rng = Random.State.make [| 0x5047 |] in
  List.iter
    (fun n ->
      for _ = 1 to 20 do
        let key = Array.init n (fun _ -> Random.State.int rng 7) in
        let cmp a b = Int.compare key.(a) key.(b) in
        let ours = Array.init n Fun.id and stdlib = Array.init n Fun.id in
        Monitor.Record.stable_sort_ints cmp ours;
        Array.stable_sort cmp stdlib;
        Alcotest.(check (array int))
          (Printf.sprintf "%d elements" n) stdlib ours
      done)
    [ 0; 1; 7; 8; 9; 16; 17; 100; 1000 ]

(* unmonitored types route to Wing-Gong with a reason *)
let test_unmonitored_fallback () =
  let module M = Monitor.Make (Spec.Counter_type) in
  Alcotest.(check bool)
    "no viewer declared" true
    (Monitor.monitored_kind (module Spec.Counter_type) = None);
  let ops : M.op list =
    [
      {
        proc = 0;
        inv = Spec.Counter_type.Add 1;
        resp = Spec.Counter_type.Ack;
        inv_time = rat 0 10;
        resp_time = rat 10 10;
      };
    ]
  in
  let r = M.check ops in
  Alcotest.(check bool) "accepted" true r.M.linearizable;
  Alcotest.(check bool) "by wing-gong" true (r.M.method_ = Monitor.Wing_gong);
  Alcotest.(check bool) "with a reason" true (Option.is_some r.M.fallback)

(* Wing-Gong's accepts pass the one verifier too.  The search interns
   states by [show_state]; a register whose states all render alike
   makes it apply the read to the wrong state, so a read of the
   initial 0 after a completed write of 1 replays in its search.  The
   replay refuses that order, names it, and the history is not
   reported linearizable. *)
module Blind = struct
  include Spec.Register

  let show_state _ = "register"
  let monitor = None
end

let test_wing_gong_verified () =
  let module M = Monitor.Make (Blind) in
  let op proc s inv resp : M.op =
    {
      proc;
      inv;
      resp;
      inv_time = Rat.of_int s;
      resp_time = Rat.of_int (s + 1);
    }
  in
  let arr =
    [| op 0 0 (Spec.Register.Write 1) Spec.Register.Ack;
       op 1 2 Spec.Register.Read (Spec.Register.Value 0) |]
  in
  let r = M.check_array arr in
  Alcotest.(check bool) "not reported linearizable" false r.M.linearizable;
  Alcotest.(check bool) "no linearization" true (r.M.linearization = None);
  Alcotest.(check bool) "by wing-gong" true (r.M.method_ = Monitor.Wing_gong);
  Alcotest.(check bool)
    "the refused order is named" true
    (match r.M.order_failure with
    | Some (Monitor.Replay_mismatch { op = 1; _ }) -> true
    | _ -> false)

(* ---------- hand-written adversarial histories -------------------- *)

let expect_reject name rule (linearizable, violation) =
  Alcotest.(check bool) (name ^ ": rejected") false linearizable;
  match violation with
  | None -> Alcotest.failf "%s: no violation witness" name
  | Some (v : Monitor.Violation.t) ->
      Alcotest.(check string) (name ^ ": rule") rule v.rule;
      Alcotest.(check bool)
        (name ^ ": has culprits") true (v.culprits <> [])

module MQ = Monitor.Make (Spec.Fifo_queue)

let qop ~proc ~s ~e inv resp : MQ.op =
  { proc; inv; resp; inv_time = rat s 10; resp_time = rat e 10 }

let enq ~proc ~s ~e v = qop ~proc ~s ~e (Spec.Fifo_queue.Enqueue v) Ack
let deq ~proc ~s ~e v = qop ~proc ~s ~e Spec.Fifo_queue.Dequeue (Got v)
let qpeek ~proc ~s ~e v = qop ~proc ~s ~e Spec.Fifo_queue.Peek (Got v)
let verdict (r : MQ.result) = (r.linearizable, r.violation)

(* ---------- the array and list entries agree ---------------------- *)

(* [check] is [check_array] over [Array.of_list].  Both must return
   the same result — verdict, method, reasons, witness and
   linearization — on every path: kernel accept, kernel reject, opaque
   fallback, unmonitored types, and a supplied order that replays or
   is refused. *)
module Entries (T : Spec.Data_type.S) = struct
  module M = Monitor.Make (T)

  (* [check] supplies no order, so with one only [check_array] runs *)
  let agree label ?order ops =
    let a = M.check_array ?order (Array.of_list ops) in
    if Option.is_none order then
      Alcotest.(check bool)
        (T.name ^ " " ^ label ^ ": same result")
        true
        (M.check ops = a);
    a

  (* Every generated history, and its corruption when one exists,
     labelled; [true] marks a clean one. *)
  let histories ~seeds ~n =
    List.concat_map
      (fun seed ->
        let clean = M.generate ~seed ~n () in
        let bad, injected = M.corrupt clean in
        (Printf.sprintf "seed %d clean" seed, true, clean)
        ::
        (if injected then
           [ (Printf.sprintf "seed %d corrupt" seed, false, bad) ]
         else []))
      (List.init seeds Fun.id)

  (* Every generated history, and its corruption, on both entries. *)
  let generated ~seeds ~n =
    List.iter
      (fun (label, clean, ops) ->
        let r = agree label ops in
        if clean then
          Alcotest.(check bool) "clean accepted" true r.M.linearizable)
      (histories ~seeds ~n)

  (* A sequential history: each operation answered as [T.apply] does,
     one after another; identity is its linearization. *)
  let sequential ~seed ~n : M.op list =
    let rng = Random.State.make [| seed |] in
    let st = ref T.initial in
    List.init n (fun i ->
        let inv = T.gen_invocation rng in
        let st', resp = T.apply !st inv in
        st := st';
        {
          Sim.Trace.proc = i mod 3;
          inv;
          resp;
          inv_time = rat (10 * i) 1;
          resp_time = rat ((10 * i) + 5) 1;
        })
end

let test_entries_agree () =
  let module Q = Entries (Spec.Fifo_queue) in
  Q.generated ~seeds:8 ~n:14;
  let r = Q.agree "large clean" (Q.M.generate ~seed:3 ~n:400 ()) in
  Alcotest.(check bool) "certified by the queue kernel" true
    (r.Q.M.method_ = Monitor.Specialized Spec.Adt_view.Queue);
  let violating =
    [
      enq ~proc:0 ~s:0 ~e:10 1;
      enq ~proc:1 ~s:20 ~e:30 2;
      deq ~proc:0 ~s:40 ~e:50 (Some 2);
    ]
  in
  let r = Q.agree "fifo violated" violating in
  Alcotest.(check bool) "rejected by the kernel" true
    (r.Q.M.violation <> None);
  (* an enqueue answered like a dequeue is outside the vocabulary *)
  let opaque =
    List.mapi
      (fun i (o : MQ.op) ->
        if i = 0 then { o with resp = Spec.Fifo_queue.Got (Some 7) } else o)
      (Q.M.generate ~seed:5 ~n:10 ())
  in
  let r = Q.agree "opaque" opaque in
  Alcotest.(check bool) "opaque goes to wing-gong" true
    (r.Q.M.method_ = Monitor.Wing_gong);
  let identity arr = Array.init (Array.length arr) Fun.id in
  let r = Q.agree "opaque, order supplied" ~order:identity opaque in
  Alcotest.(check bool) "opaque order refused" true
    (r.Q.M.order_failure <> None);
  let module C = Entries (Spec.Counter_type) in
  let seq = C.sequential ~seed:2 ~n:12 in
  let r = C.agree "unmonitored" seq in
  Alcotest.(check bool) "unmonitored by wing-gong" true
    (r.C.M.method_ = Monitor.Wing_gong);
  let r = C.agree "unmonitored, order supplied" ~order:identity seq in
  Alcotest.(check bool) "unmonitored by its order" true
    (r.C.M.method_ = Monitor.Protocol_order);
  let r =
    C.agree "unmonitored, order refused"
      ~order:(fun arr ->
        let n = Array.length arr in
        Array.init n (fun i -> n - 1 - i))
      seq
  in
  Alcotest.(check bool) "reversed order refused" true
    (r.C.M.order_failure <> None)

(* ---------- the record adapter and the columnar pipeline agree ---- *)

(* [Monitor.kernel_for] over [record_of] records is what callers that
   still build records run; [check_array] reads columns.  On every
   Entries history of each shape both must reach the same kernel
   outcome: the same certificate positions (or the same refusal of
   it), the same violation — rule, message, and each culprit's index,
   process, observation and interval — or the same reason to fall
   back. *)
module Adapter (T : Spec.Data_type.S) = struct
  module E = Entries (T)
  module M = E.M

  let agree label (ops : M.op list) =
    let vw = Option.get M.viewer in
    let name = T.name ^ " " ^ label in
    let arr = Array.of_list ops in
    let r = M.check_array arr in
    let records = Array.mapi (M.record_of vw) arr in
    if Array.exists (fun (x : Monitor.Record.t) -> x.obs = Opaque) records
    then
      (* the pipeline consults no kernel then *)
      Alcotest.(check (option string))
        (name ^ ": out of vocabulary")
        (Some "history contains an observation outside the monitor vocabulary")
        (Option.map Lazy.force r.M.fallback)
    else
      match Monitor.kernel_for vw.kind records with
      | Monitor.Record.Order o -> (
          match M.verify_order arr o with
          | Ok () ->
              Alcotest.(check bool)
                (name ^ ": certified by the kernel") true
                (r.M.method_ = Monitor.Specialized vw.kind
                && r.M.fallback = None);
              Alcotest.(check (option (array int)))
                (name ^ ": same certificate") (Some o) r.M.linearization
          | Error f ->
              Alcotest.(check (option string))
                (name ^ ": same certificate refused")
                (Some ("certificate " ^ Monitor.order_failure_reason f))
                (Option.map Lazy.force r.M.fallback))
      | Monitor.Record.Violation v ->
          Alcotest.(check (option string))
            (name ^ ": same violation")
            (Some (Monitor.Violation.to_string v))
            (Option.map Monitor.Violation.to_string r.M.violation);
          Alcotest.(check bool)
            (name ^ ": same culprits") true (r.M.violation = Some v)
      | Monitor.Record.Unknown why ->
          Alcotest.(check (option string))
            (name ^ ": same reason to fall back")
            (Some (Lazy.force why))
            (Option.map Lazy.force r.M.fallback)

  let run () =
    List.iter
      (fun (label, _, ops) -> agree label ops)
      (E.histories ~seeds:8 ~n:14 @ E.histories ~seeds:2 ~n:400);
    for seed = 0 to 3 do
      agree (Printf.sprintf "sequential %d" seed) (E.sequential ~seed ~n:12)
    done
end

let test_adapter_agrees () =
  (let module A = Adapter (Spec.Register) in
   A.run ());
  (let module A = Adapter (Spec.Fifo_queue) in
   A.run ());
  (let module A = Adapter (Spec.Stack_type) in
   A.run ());
  (let module A = Adapter (Spec.Set_type) in
   A.run ());
  let module A = Adapter (Spec.Priority_queue) in
  A.run ()

(* ---------- the witness is a verified permutation ----------------- *)

(* On each accept path — kernel certificate, supplied order, Wing-Gong
   search — the reported witness is history positions: a permutation
   of the history that the verifier accepts. *)
let check_witness name (type o) (arr : o array) verify
    (linearization : int array option) =
  match linearization with
  | None -> Alcotest.failf "%s: no witness" name
  | Some w ->
      let sorted = Array.copy w in
      Array.sort Int.compare sorted;
      Alcotest.(check (array int))
        (name ^ ": a permutation of the history")
        (Array.init (Array.length arr) Fun.id)
        sorted;
      Alcotest.(check bool)
        (name ^ ": verified") true
        (Result.is_ok (verify arr w))

let test_witness_positions () =
  let path name m expected =
    Alcotest.(check string) (name ^ ": accept path")
      (Monitor.method_to_string expected)
      (Monitor.method_to_string m)
  in
  (* kernel *)
  let ops = MQ.generate ~seed:4 ~n:300 () in
  let arr = Array.of_list ops in
  let r = MQ.check_array arr in
  path "queue" r.MQ.method_ (Monitor.Specialized Spec.Adt_view.Queue);
  check_witness "queue kernel" arr MQ.verify_order r.MQ.linearization;
  (* protocol order, then Wing-Gong, on a type no kernel decides *)
  let module C = Entries (Spec.Counter_type) in
  let arr = Array.of_list (C.sequential ~seed:3 ~n:10) in
  let identity arr = Array.init (Array.length arr) Fun.id in
  let r = C.M.check_array ~order:identity arr in
  path "counter" r.C.M.method_ Monitor.Protocol_order;
  check_witness "counter protocol order" arr C.M.verify_order
    r.C.M.linearization;
  let r = C.M.check_array arr in
  path "counter" r.C.M.method_ Monitor.Wing_gong;
  check_witness "counter wing-gong" arr C.M.verify_order r.C.M.linearization;
  (* Wing-Gong after the queue kernel gave up on a duplicate insertion *)
  let arr =
    Array.of_list
      [
        enq ~proc:0 ~s:0 ~e:30 1;
        enq ~proc:1 ~s:5 ~e:30 1;
        deq ~proc:0 ~s:40 ~e:50 (Some 1);
      ]
  in
  let r = MQ.check_array arr in
  path "ambiguous queue" r.MQ.method_ Monitor.Wing_gong;
  check_witness "queue wing-gong" arr MQ.verify_order r.MQ.linearization

let test_queue_adversarial () =
  (* concurrent enqueues: the dequeue order decides, accept *)
  let r =
    MQ.check
      [
        enq ~proc:0 ~s:0 ~e:30 1;
        enq ~proc:1 ~s:5 ~e:30 2;
        deq ~proc:0 ~s:40 ~e:50 (Some 2);
        deq ~proc:1 ~s:60 ~e:70 (Some 1);
      ]
  in
  Alcotest.(check bool) "concurrent enqueues accepted" true r.MQ.linearizable;
  (* forced FIFO inversion *)
  expect_reject "fifo inversion" "queue.fifo-order"
    (verdict
       (MQ.check
          [
            enq ~proc:0 ~s:0 ~e:10 1;
            enq ~proc:1 ~s:20 ~e:30 2;
            deq ~proc:0 ~s:40 ~e:50 (Some 2);
            deq ~proc:1 ~s:60 ~e:70 (Some 1);
          ]));
  (* empty observation while a value is forced present *)
  expect_reject "impossible empty" "container.nonempty"
    (verdict
       (MQ.check
          [
            enq ~proc:0 ~s:0 ~e:10 1;
            deq ~proc:1 ~s:20 ~e:30 None;
            deq ~proc:0 ~s:40 ~e:50 (Some 1);
          ]));
  (* value from nowhere *)
  expect_reject "fresh value" "container.fresh"
    (verdict (MQ.check [ deq ~proc:0 ~s:0 ~e:10 (Some 7) ]));
  (* taken twice *)
  expect_reject "taken twice" "container.repeat"
    (verdict
       (MQ.check
          [
            enq ~proc:0 ~s:0 ~e:10 1;
            deq ~proc:1 ~s:20 ~e:30 (Some 1);
            deq ~proc:0 ~s:40 ~e:50 (Some 1);
          ]));
  (* a duplicate insertion is ambiguity, not a violation: two takes of
     [v] are each other's alibi, so the kernel must hand the history to
     Wing-Gong — crucially also when the confounded takes precede the
     second insertion in record order, where an eager scan would flag a
     definitive (and wrong) [container.repeat].  Regression for the
     closed-loop false negative (test_wtlw seeds 166, 78979, ...):
     small value ranges repeat values, the monitor claimed
     non-linearizable while Wing-Gong certified. *)
  let ambiguous =
    [
      deq ~proc:0 ~s:0 ~e:130 (Some 0);
      deq ~proc:1 ~s:1 ~e:131 (Some 0);
      enq ~proc:2 ~s:2 ~e:52 0;
      enq ~proc:3 ~s:3 ~e:53 0;
    ]
  in
  let r = MQ.check ambiguous in
  Alcotest.(check bool) "duplicate insertions certified" true r.MQ.linearizable;
  Alcotest.(check bool) "via wing-gong fallback" true
    (Option.is_some r.MQ.fallback);
  let third_take = ambiguous @ [ deq ~proc:0 ~s:140 ~e:150 (Some 0) ] in
  Alcotest.(check bool)
    "real violation under duplicates still rejected" false
    (MQ.check third_take).MQ.linearizable;
  (* observed after its removal *)
  expect_reject "peek after take" "container.after-take"
    (verdict
       (MQ.check
          [
            enq ~proc:0 ~s:0 ~e:10 1;
            deq ~proc:1 ~s:20 ~e:30 (Some 1);
            qpeek ~proc:0 ~s:40 ~e:50 (Some 1);
          ]));
  (* observed entirely before its insertion *)
  expect_reject "take before put" "container.before-put"
    (verdict
       (MQ.check
          [ deq ~proc:0 ~s:0 ~e:10 (Some 1); enq ~proc:1 ~s:20 ~e:30 1 ]))

module MR = Monitor.Make (Spec.Register)

let wr ~proc ~s ~e v : MR.op =
  {
    proc;
    inv = Spec.Register.Write v;
    resp = Spec.Register.Ack;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let rd ~proc ~s ~e v : MR.op =
  {
    proc;
    inv = Spec.Register.Read;
    resp = Spec.Register.Value v;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let rverdict (r : MR.result) = (r.linearizable, r.violation)

let test_register_adversarial () =
  (* read overlapping the overwrite may still return the old value *)
  let r =
    MR.check
      [ wr ~proc:0 ~s:0 ~e:10 1; wr ~proc:1 ~s:20 ~e:40 2; rd ~proc:2 ~s:30 ~e:50 1 ]
  in
  Alcotest.(check bool) "overlapping read accepted" true r.MR.linearizable;
  expect_reject "stale read" "register.stale"
    (rverdict
       (MR.check
          [
            wr ~proc:0 ~s:0 ~e:10 1;
            wr ~proc:1 ~s:20 ~e:30 2;
            rd ~proc:2 ~s:40 ~e:50 1;
          ]));
  expect_reject "stale initial read" "register.stale"
    (rverdict (MR.check [ wr ~proc:0 ~s:0 ~e:10 1; rd ~proc:1 ~s:20 ~e:30 0 ]));
  expect_reject "read before write" "register.before-write"
    (rverdict (MR.check [ rd ~proc:0 ~s:0 ~e:10 5; wr ~proc:1 ~s:20 ~e:30 5 ]))

module MS = Monitor.Make (Spec.Stack_type)

let push ~proc ~s ~e v : MS.op =
  {
    proc;
    inv = Spec.Stack_type.Push v;
    resp = Spec.Stack_type.Ack;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let pop ~proc ~s ~e v : MS.op =
  {
    proc;
    inv = Spec.Stack_type.Pop;
    resp = Spec.Stack_type.Got v;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let sverdict (r : MS.result) = (r.linearizable, r.violation)

let test_stack_adversarial () =
  let r =
    MS.check
      [
        push ~proc:0 ~s:0 ~e:10 1;
        push ~proc:1 ~s:20 ~e:30 2;
        pop ~proc:0 ~s:40 ~e:50 (Some 2);
        pop ~proc:1 ~s:60 ~e:70 (Some 1);
      ]
  in
  Alcotest.(check bool) "lifo order accepted" true r.MS.linearizable;
  expect_reject "lifo inversion" "stack.lifo-order"
    (sverdict
       (MS.check
          [
            push ~proc:0 ~s:0 ~e:10 1;
            push ~proc:1 ~s:20 ~e:30 2;
            pop ~proc:0 ~s:40 ~e:50 (Some 1);
            pop ~proc:1 ~s:60 ~e:70 (Some 2);
          ]))

module MP = Monitor.Make (Spec.Priority_queue)

let ins ~proc ~s ~e v : MP.op =
  {
    proc;
    inv = Spec.Priority_queue.Insert v;
    resp = Spec.Priority_queue.Ack;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let ext ~proc ~s ~e v : MP.op =
  {
    proc;
    inv = Spec.Priority_queue.Extract_max;
    resp = Spec.Priority_queue.Max v;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let pverdict (r : MP.result) = (r.linearizable, r.violation)

let test_pqueue_adversarial () =
  let r =
    MP.check
      [
        ins ~proc:0 ~s:0 ~e:10 3;
        ins ~proc:1 ~s:20 ~e:30 5;
        ext ~proc:0 ~s:40 ~e:50 (Some 5);
        ext ~proc:1 ~s:60 ~e:70 (Some 3);
      ]
  in
  Alcotest.(check bool) "priority order accepted" true r.MP.linearizable;
  expect_reject "priority inversion" "pqueue.priority-order"
    (pverdict
       (MP.check
          [
            ins ~proc:0 ~s:0 ~e:10 5;
            ins ~proc:1 ~s:20 ~e:30 3;
            ext ~proc:0 ~s:40 ~e:50 (Some 3);
          ]))

module MSet = Monitor.Make (Spec.Set_type)

let sadd ~proc ~s ~e v : MSet.op =
  {
    proc;
    inv = Spec.Set_type.Add v;
    resp = Spec.Set_type.Ack;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let sdel ~proc ~s ~e v : MSet.op =
  {
    proc;
    inv = Spec.Set_type.Remove v;
    resp = Spec.Set_type.Ack;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let smem ~proc ~s ~e v b : MSet.op =
  {
    proc;
    inv = Spec.Set_type.Contains v;
    resp = Spec.Set_type.Mem b;
    inv_time = rat s 10;
    resp_time = rat e 10;
  }

let setverdict (r : MSet.result) = (r.linearizable, r.violation)

let test_set_adversarial () =
  let r =
    MSet.check
      [
        sadd ~proc:0 ~s:0 ~e:10 1;
        smem ~proc:1 ~s:20 ~e:30 1 true;
        sdel ~proc:0 ~s:40 ~e:50 1;
        smem ~proc:1 ~s:60 ~e:70 1 false;
      ]
  in
  Alcotest.(check bool) "set lifecycle accepted" true r.MSet.linearizable;
  expect_reject "absence while forced present" "set.false-read"
    (setverdict
       (MSet.check
          [ sadd ~proc:0 ~s:0 ~e:10 1; smem ~proc:1 ~s:20 ~e:30 1 false ]));
  expect_reject "presence after forced remove" "set.after-drop"
    (setverdict
       (MSet.check
          [
            sadd ~proc:0 ~s:0 ~e:10 1;
            sdel ~proc:0 ~s:20 ~e:30 1;
            smem ~proc:1 ~s:40 ~e:50 1 true;
          ]))

(* ---------- wing-gong budget payload ------------------------------ *)

let test_budget_payload () =
  let module W = Lin.Checker.Make (Spec.Fifo_queue) in
  let ops = MQ.generate ~seed:0 ~n:40 () in
  (match W.check ~max_nodes:5 ops with
  | _ -> Alcotest.fail "expected Node_budget_exceeded"
  | exception Lin.Checker.Node_budget_exceeded { nodes; prefix; total } ->
      Alcotest.(check bool) "nodes counted" true (nodes > 5);
      Alcotest.(check int) "total is the history size" 40 total;
      Alcotest.(check bool)
        "prefix within bounds" true
        (0 <= prefix && prefix <= total));
  let line =
    Format.asprintf "%a" Lin.Checker.pp_budget_exceeded (12, 3, 40)
  in
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool)
    "diagnostic names the node count" true
    (contains ~sub:"12" line)

let () =
  Alcotest.run "monitor"
    [
      ( "agreement with wing-gong",
        [
          Alcotest.test_case "register" `Quick test_agreement_register;
          Alcotest.test_case "queue" `Quick test_agreement_queue;
          Alcotest.test_case "stack" `Quick test_agreement_stack;
          Alcotest.test_case "set" `Quick test_agreement_set;
          Alcotest.test_case "priority queue" `Quick test_agreement_pqueue;
          Alcotest.test_case "all five, tied timestamps" `Quick
            test_agreement_tied;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "all five kinds, no fallback" `Quick
            test_specialized_scale;
          Alcotest.test_case "20k-op queue" `Quick test_queue_20k;
          Alcotest.test_case "draining histories, no quadratic cliff" `Quick
            test_drain_cliff;
          Alcotest.test_case "empty coverage matches its definition" `Quick
            test_empty_coverage_reference;
          Alcotest.test_case "kernel sort is stable" `Quick test_stable_sort;
          Alcotest.test_case "unmonitored type falls back" `Quick
            test_unmonitored_fallback;
          Alcotest.test_case "wing-gong accepts are verified" `Quick
            test_wing_gong_verified;
          Alcotest.test_case "array and list entries agree" `Quick
            test_entries_agree;
          Alcotest.test_case "record adapter and columns agree" `Quick
            test_adapter_agrees;
          Alcotest.test_case "witness is a verified permutation" `Quick
            test_witness_positions;
        ] );
      ( "adversarial histories",
        [
          Alcotest.test_case "queue" `Quick test_queue_adversarial;
          Alcotest.test_case "register" `Quick test_register_adversarial;
          Alcotest.test_case "stack" `Quick test_stack_adversarial;
          Alcotest.test_case "priority queue" `Quick test_pqueue_adversarial;
          Alcotest.test_case "set" `Quick test_set_adversarial;
        ] );
      ( "wing-gong budget",
        [ Alcotest.test_case "payload and rendering" `Quick
            test_budget_payload ] );
    ]
