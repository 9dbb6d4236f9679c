(* Tests for the simulation event queue: min-heap ordering and FIFO
   tie-breaking. *)

let rat = Rat.make

(* The tests exercise ordering only: the tag rides along as zero (the
   engine's own use is covered by test_engine). *)
let push q ?(priority = 1) ~time x =
  Sim.Event_queue.push q ~priority ~time ~tag:0 x

(* The earliest event and its time, as the engine's loop reads them:
   [min_time], then [pop_min]; [None] on an empty queue. *)
let pop q =
  if Sim.Event_queue.is_empty q then None
  else
    let time = Sim.Event_queue.min_time q in
    Some (time, Sim.Event_queue.pop_min q)

let peek_time q =
  if Sim.Event_queue.is_empty q then None
  else Some (Sim.Event_queue.min_time q)

let test_empty () =
  let q = Sim.Event_queue.create () in
  Alcotest.(check bool) "is_empty" true (Sim.Event_queue.is_empty q);
  Alcotest.(check int) "length 0" 0 (Sim.Event_queue.length q);
  Alcotest.(check bool) "pop None" true (pop q = None);
  Alcotest.(check bool) "peek None" true (peek_time q = None)

let test_ordering () =
  let q = Sim.Event_queue.create () in
  push q ~time:(rat 3 1) "c";
  push q ~time:(rat 1 1) "a";
  push q ~time:(rat 2 1) "b";
  Alcotest.(check (option string))
    "peek time is 1" (Some "1")
    (Option.map Rat.to_string (peek_time q));
  let pop_payload () = snd (Option.get (pop q)) in
  Alcotest.(check string) "a first" "a" (pop_payload ());
  Alcotest.(check string) "b second" "b" (pop_payload ());
  Alcotest.(check string) "c third" "c" (pop_payload ());
  Alcotest.(check bool) "now empty" true (Sim.Event_queue.is_empty q)

let test_fifo_ties () =
  let q = Sim.Event_queue.create () in
  List.iter (fun s -> push q ~time:Rat.one s) [ "x"; "y"; "z" ];
  push q ~time:Rat.zero "first";
  let order = List.init 4 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list string))
    "FIFO among equal times"
    [ "first"; "x"; "y"; "z" ]
    order

let test_interleaved () =
  let q = Sim.Event_queue.create () in
  push q ~time:(rat 5 1) 5;
  push q ~time:(rat 1 1) 1;
  Alcotest.(check (option (pair string int)))
    "pop 1"
    (Some ("1", 1))
    (Option.map (fun (t, v) -> (Rat.to_string t, v)) (pop q));
  push q ~time:(rat 3 1) 3;
  push q ~time:(rat 2 1) 2;
  let rest = List.init 3 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list int)) "sorted rest" [ 2; 3; 5 ] rest

(* The allocation-free API the engine's hot loop uses: [min_time] then
   [pop_min] drain in order, and both refuse an empty queue. *)
let test_min_time_pop_min () =
  let q = Sim.Event_queue.create () in
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Event_queue.min_time: empty queue") (fun () ->
      ignore (Sim.Event_queue.min_time q));
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Event_queue.pop_min: empty queue") (fun () ->
      ignore (Sim.Event_queue.pop_min q));
  push q ~time:(rat 7 2) "late";
  push q ~time:(rat 1 2) "early";
  Alcotest.(check string)
    "min_time is earliest" "1/2"
    (Rat.to_string (Sim.Event_queue.min_time q));
  Alcotest.(check string) "pop_min matches" "early" (Sim.Event_queue.pop_min q);
  Alcotest.(check string)
    "min_time advances" "7/2"
    (Rat.to_string (Sim.Event_queue.min_time q));
  Alcotest.(check string) "drains" "late" (Sim.Event_queue.pop_min q);
  Alcotest.(check bool) "empty again" true (Sim.Event_queue.is_empty q)

(* Each event's tag travels with it through the heap's reorderings,
   whatever int it is, and is readable before the pop. *)
let test_tags_round_trip () =
  let q = Sim.Event_queue.create () in
  let tag_of v = [| 0; -1; max_int; min_int; 1 lsl 61; -(1 lsl 40); 7 |].(v) in
  List.iter
    (fun (t, p, v) ->
      Sim.Event_queue.push q ~priority:p ~time:(Rat.of_int t) ~tag:(tag_of v) v)
    [
      (4, 1, 1); (2, 1, 2); (2, 0, 3); (9, 0, 4); (1, 1, 5); (2, 1, 6);
      (0, 0, 0);
    ];
  let rec drain acc =
    if Sim.Event_queue.is_empty q then List.rev acc
    else begin
      let tag = Sim.Event_queue.min_tag q in
      let v = Sim.Event_queue.pop_min q in
      Alcotest.(check int) (Printf.sprintf "tag of %d" v) (tag_of v) tag;
      drain (v :: acc)
    end
  in
  Alcotest.(check (list int)) "order" [ 0; 5; 3; 2; 6; 1; 4 ] (drain []);
  Alcotest.check_raises "min_tag on empty"
    (Invalid_argument "Event_queue.min_tag: empty queue") (fun () ->
      ignore (Sim.Event_queue.min_tag q))

(* Priority shares the order key with the sequence number, which
   leaves it one bit: anything but 0 and 1 is refused by name, and the
   queue is left as it was. *)
let test_priority_refused () =
  let q = Sim.Event_queue.create () in
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "priority %d" p)
        (Invalid_argument
           (Printf.sprintf "Event_queue.push: priority %d is neither 0 nor 1" p))
        (fun () -> Sim.Event_queue.push q ~priority:p ~time:Rat.one ~tag:0 ()))
    [ 2; 3; -1; max_int ];
  Alcotest.(check int) "nothing pushed" 0 (Sim.Event_queue.length q)

(* Once the queue has room, a push and a pop allocate nothing: the
   engine's hot loop runs one of each per dispatched event. *)
let test_push_pop_allocate_nothing () =
  let q = Sim.Event_queue.create () in
  let late = Rat.make 7 2 and x = "payload" in
  for i = 0 to 63 do
    Sim.Event_queue.push q ~priority:(i land 1) ~time:late ~tag:i x
  done;
  while not (Sim.Event_queue.is_empty q) do
    ignore (Sim.Event_queue.pop_min q)
  done;
  let before = Gc.minor_words () in
  for i = 0 to 999 do
    Sim.Event_queue.push q ~priority:(i land 1) ~time:late ~tag:(-i) x;
    Sim.Event_queue.push q ~priority:0 ~time:(Rat.of_int i) ~tag:i x;
    ignore (Sim.Event_queue.min_tag q);
    ignore (Sim.Event_queue.pop_min q);
    ignore (Sim.Event_queue.pop_min q)
  done;
  Alcotest.(check (float 0.)) "words" 0. (Gc.minor_words () -. before)

(* The 17th push grows 16 slots to 32: exactly four fresh arrays (times,
   order keys, tags, payloads), each 32 words and a header. *)
let test_growth_allocates_four_arrays () =
  let q = Sim.Event_queue.create () in
  for i = 0 to 15 do
    Sim.Event_queue.push q ~priority:1 ~time:(Rat.of_int i) ~tag:i ()
  done;
  let before = Gc.minor_words () in
  Sim.Event_queue.push q ~priority:1 ~time:Rat.zero ~tag:16 ();
  Alcotest.(check (float 0.))
    "four arrays of 32" (4. *. 33.)
    (Gc.minor_words () -. before)

(* Property: [min_time], [min_tag] and [pop_min] drain the queue in
   the order [pop] should give — the pushes stably sorted by time —
   across growth boundaries of the flat arrays. *)
let prop_pop_min_agrees_with_pop =
  QCheck.Test.make ~name:"pop_min/min_time agree with pop" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 100) (pair (int_range 0 50) (int_range 1 9)))
    (fun entries ->
      let q = Sim.Event_queue.create () in
      let pushed = List.mapi (fun i (n, d) -> (Rat.make n d, i)) entries in
      List.iter
        (fun (time, i) -> Sim.Event_queue.push q ~priority:1 ~time ~tag:(-i) i)
        pushed;
      let rec drain acc =
        if Sim.Event_queue.is_empty q then List.rev acc
        else begin
          let t = Sim.Event_queue.min_time q
          and tag = Sim.Event_queue.min_tag q in
          let v = Sim.Event_queue.pop_min q in
          if tag <> -v then raise Exit;
          drain ((t, v) :: acc)
        end
      in
      match drain [] with
      | drained ->
          let expected =
            List.stable_sort (fun (t1, _) (t2, _) -> Rat.compare t1 t2) pushed
          in
          List.length drained = List.length entries
          && List.for_all2
               (fun (t1, v1) (t2, v2) -> Rat.equal t1 t2 && v1 = v2)
               drained expected
          && pop q = None
      | exception Exit -> false)

(* [reset] keeps the arrays and lets go of every payload still queued:
   refilling up to the old capacity allocates nothing, and a payload
   that was queued at the reset is no longer reachable from it. *)
let test_reset_keeps_arrays_releases_payloads () =
  let q = Sim.Event_queue.create () in
  let weak = Weak.create 1 in
  (fun () ->
    let x = Bytes.make 8 'x' in
    Weak.set weak 0 (Some x);
    for i = 0 to 31 do
      Sim.Event_queue.push q ~priority:1 ~time:(Rat.of_int i) ~tag:i x
    done)
    ();
  ignore (Sim.Event_queue.pop_min q);
  Sim.Event_queue.reset q;
  Alcotest.(check int) "empty" 0 (Sim.Event_queue.length q);
  Alcotest.(check int) "capacity kept" 32 (Sim.Event_queue.capacity q);
  Gc.full_major ();
  Alcotest.(check bool) "payload released" false (Weak.check weak 0);
  let before = Gc.minor_words () in
  for i = 0 to 31 do
    Sim.Event_queue.push q ~priority:(i land 1) ~time:Rat.one ~tag:i Bytes.empty
  done;
  Alcotest.(check (float 0.)) "refill allocates nothing" 0.
    (Gc.minor_words () -. before)

(* Property: a queue reset with entries still in it, some popped, then
   fed a second batch of pushes, drains the second batch exactly as a
   fresh queue fed the same pushes does: times, tags and payloads. *)
let prop_reset_like_fresh =
  let batch =
    QCheck.(
      list_of_size (Gen.int_range 0 40)
        (triple (int_range 0 5) (int_range 0 1) (int_range 1 3)))
  in
  QCheck.Test.make ~name:"a reset queue pops like a fresh one" ~count:200
    QCheck.(triple batch (int_range 0 40) batch)
    (fun (first, popped, second) ->
      let feed q =
        List.iteri
          (fun i (n, p, d) ->
            Sim.Event_queue.push q ~priority:p ~time:(Rat.make n d) ~tag:(-i) i)
      in
      let rec drain q acc =
        if Sim.Event_queue.is_empty q then List.rev acc
        else
          let t = Sim.Event_queue.min_time q
          and tag = Sim.Event_queue.min_tag q in
          drain q ((Rat.to_string t, tag, Sim.Event_queue.pop_min q) :: acc)
      in
      let reused = Sim.Event_queue.create () in
      feed reused first;
      for _ = 1 to min popped (Sim.Event_queue.length reused) do
        ignore (Sim.Event_queue.pop_min reused)
      done;
      Sim.Event_queue.reset reused;
      feed reused second;
      let fresh = Sim.Event_queue.create () in
      feed fresh second;
      drain reused [] = drain fresh [])

(* Property: draining the queue yields times in non-decreasing order,
   whatever the insertion order, including fractional times. *)
let arb_times =
  QCheck.list_of_size (QCheck.Gen.int_range 0 200)
    (QCheck.map
       (fun (n, d) -> Rat.make (abs n) (1 + abs d))
       QCheck.(pair (int_range 0 500) (int_range 0 16)))

let prop_sorted_drain =
  QCheck.Test.make ~name:"drain is sorted" ~count:200 arb_times (fun times ->
      let q = Sim.Event_queue.create () in
      List.iteri (fun i t -> push q ~time:t i) times;
      let rec drain acc =
        match pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let drained = drain [] in
      List.length drained = List.length times
      && List.for_all2 Rat.equal drained (List.sort Rat.compare times))

let prop_fifo_stability =
  QCheck.Test.make ~name:"equal times pop in insertion order" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Sim.Event_queue.create () in
      List.iter (fun i -> push q ~time:Rat.one i) (List.init n Fun.id);
      let popped = List.init n (fun _ -> snd (Option.get (pop q))) in
      popped = List.init n Fun.id)

(* Property: tie-breaking among entries with equal (time, priority) is
   stable even when entries are duplicated — pushing every entry twice
   (as the fault injector's message duplication does) must pop the
   whole queue as the stable sort of the push sequence. *)
let prop_duplicate_stability =
  QCheck.Test.make ~name:"ties (time, priority) stay FIFO under duplication"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 40) (pair (int_range 0 3) (int_range 0 1)))
    (fun entries ->
      let q = Sim.Event_queue.create () in
      let pushed =
        List.concat
          (List.mapi
             (fun i (t, p) -> [ (t, p, 2 * i); (t, p, (2 * i) + 1) ])
             entries)
      in
      List.iter
        (fun ((t, p, _) as v) ->
          push q ~priority:p ~time:(Rat.of_int t) v)
        pushed;
      let popped =
        List.init (List.length pushed) (fun _ ->
            snd (Option.get (pop q)))
      in
      let expected =
        List.stable_sort
          (fun (t1, p1, _) (t2, p2, _) -> compare (t1, p1) (t2, p2))
          pushed
      in
      popped = expected)

let () =
  Alcotest.run "event_queue"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "interleaved" `Quick test_interleaved;
          Alcotest.test_case "min_time / pop_min" `Quick test_min_time_pop_min;
          Alcotest.test_case "tags round-trip" `Quick test_tags_round_trip;
          Alcotest.test_case "priority refused" `Quick test_priority_refused;
          Alcotest.test_case "push and pop allocate nothing" `Quick
            test_push_pop_allocate_nothing;
          Alcotest.test_case "growth allocates four arrays" `Quick
            test_growth_allocates_four_arrays;
          Alcotest.test_case "reset keeps arrays, releases payloads" `Quick
            test_reset_keeps_arrays_releases_payloads;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sorted_drain;
            prop_fifo_stability;
            prop_duplicate_stability;
            prop_pop_min_agrees_with_pop;
            prop_reset_like_fresh;
          ] );
    ]
