(* Tests for workload schedules and latency metrics. *)

let rat = Rat.make

let test_open_loop () =
  let schedule =
    Core.Workload.open_loop ~n:3 ~per_proc:4 ~spacing:(rat 10 1)
      ~gen:(fun ~proc ~k -> (proc, k))
      ()
  in
  Alcotest.(check int) "3*4 entries" 12 (List.length schedule);
  let find proc k =
    List.find
      (fun (e : (int * int) Core.Workload.entry) -> e.inv = (proc, k))
      schedule
  in
  Alcotest.(check string) "p0 k0 at 0" "0" (Rat.to_string (find 0 0).at);
  Alcotest.(check string) "p2 k3 at 30" "30" (Rat.to_string (find 2 3).at);
  Alcotest.(check int) "proc recorded" 2 (find 2 3).proc

let test_random_open_loop_deterministic () =
  let make seed =
    Core.Workload.random_open_loop ~n:2 ~per_proc:5 ~spacing:(rat 20 1) ~seed
      ~gen_invocation:Spec.Register.gen_invocation ()
    |> List.map (fun (e : Spec.Register.invocation Core.Workload.entry) ->
           (e.proc, Rat.to_string e.at, e.inv))
  in
  Alcotest.(check bool) "same seed same schedule" true (make 3 = make 3);
  Alcotest.(check bool) "different seeds differ" true (make 3 <> make 4)

let test_concurrent_bursts_overlap () =
  let schedule =
    Core.Workload.concurrent_bursts ~n:4 ~rounds:2 ~spacing:(rat 50 1)
      ~gen:(fun ~proc:_ ~k:_ -> ())
      ()
  in
  Alcotest.(check int) "4*2 entries" 8 (List.length schedule);
  (* Within a round, distinct processes have distinct but very close
     invocation times. *)
  let round0 =
    List.filter
      (fun (e : unit Core.Workload.entry) -> Rat.lt e.at (rat 25 1))
      schedule
  in
  Alcotest.(check int) "one per process in round 0" 4 (List.length round0);
  let times = List.map (fun (e : unit Core.Workload.entry) -> e.at) round0 in
  Alcotest.(check bool) "distinct times" true
    (List.length (List.sort_uniq Rat.compare times) = 4);
  Alcotest.(check bool) "all within 1/4 time unit" true
    (Rat.lt (Rat.sub (Rat.max_list times) (Rat.min_list times)) (rat 1 4))

let test_sort_schedule () =
  let entries =
    [
      Core.Workload.entry ~proc:0 ~at:(rat 5 1) "b";
      Core.Workload.entry ~proc:1 ~at:(rat 1 1) "a";
      Core.Workload.entry ~proc:2 ~at:(rat 9 1) "c";
    ]
  in
  let sorted = Core.Workload.sort_schedule entries in
  Alcotest.(check (list string)) "sorted by time" [ "a"; "b"; "c" ]
    (List.map (fun (e : string Core.Workload.entry) -> e.inv) sorted)

(* Ties on invocation time must break on process id, never on list
   position: a generator is free to emit same-instant entries in any
   order, and two emissions of the same schedule must sort
   identically. *)
let test_sort_schedule_tie_break () =
  let at = rat 7 1 in
  let shuffled =
    [
      Core.Workload.entry ~proc:2 ~at "p2";
      Core.Workload.entry ~proc:0 ~at "p0";
      Core.Workload.entry ~proc:1 ~at "p1";
    ]
  in
  let sorted = Core.Workload.sort_schedule shuffled in
  Alcotest.(check (list string)) "same-time ties break by proc"
    [ "p0"; "p1"; "p2" ]
    (List.map (fun (e : string Core.Workload.entry) -> e.inv) sorted);
  (* and the result is invariant under the emission order *)
  let resorted = Core.Workload.sort_schedule (List.rev shuffled) in
  Alcotest.(check bool) "emission-order invariant" true (sorted = resorted)

(* ---------------- streaming generator ---------------- *)

let drain gen =
  let rec go acc =
    match Core.Workload.Gen.next gen with
    | None -> List.rev acc
    | Some a -> go (a :: acc)
  in
  go []

let mk_gen ?(arrival = Core.Workload.Poisson { rate = Rat.one }) ?(zipf = 0.0)
    ?(keys = 8) ?(ops = 500) ?(seed = 11) () =
  Core.Workload.Gen.create ~arrival ~zipf ~keys ~ops ~seed
    ~invocation:(fun _rng ~key ~seq -> (key, seq))
    ()

let test_gen_deterministic_and_monotone () =
  let view g =
    List.map
      (fun (a : (int * int) Core.Workload.keyed) ->
        (Rat.to_string a.at, a.key, a.inv))
      (drain g)
  in
  let s1 = view (mk_gen ()) and s1' = view (mk_gen ()) in
  Alcotest.(check bool) "same seed, same stream" true (s1 = s1');
  Alcotest.(check bool) "different seed differs" true
    (s1 <> view (mk_gen ~seed:12 ()));
  let arrivals = drain (mk_gen ()) in
  Alcotest.(check int) "exactly ops arrivals" 500 (List.length arrivals);
  let rec monotone = function
    | (a : (int * int) Core.Workload.keyed)
      :: (b : (int * int) Core.Workload.keyed) :: rest ->
        Rat.le a.at b.at && Rat.sign a.at > 0 && monotone (b :: rest)
    | [ a ] -> Rat.sign a.at > 0
    | [] -> true
  in
  Alcotest.(check bool) "times positive and nondecreasing" true
    (monotone arrivals);
  (* the seq passed to the invocation callback is the stream position *)
  Alcotest.(check bool) "seq = position" true
    (List.for_all2
       (fun i (a : (int * int) Core.Workload.keyed) -> snd a.inv = i)
       (List.init 500 Fun.id) arrivals);
  (* Stream digests pinned before generator time moved to integer
     quanta: every arrival kind must emit the same times, keys and
     invocations, byte for byte. *)
  let digest arrival =
    let b = Buffer.create 65536 in
    List.iter
      (fun (a : (int * int) Core.Workload.keyed) ->
        Printf.bprintf b "%s %d %d\n" (Rat.to_string a.at) a.key (snd a.inv))
      (drain (mk_gen ~arrival ~zipf:0.9 ~keys:16 ~ops:5000 ~seed:3 ()));
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (label, arrival, expected) ->
      Alcotest.(check string) (label ^ " stream digest") expected
        (digest arrival))
    [
      ( "poisson",
        Core.Workload.Poisson { rate = rat 1 4 },
        "211406802cb8d266ac9a01e1d50d8756" );
      ( "bursty",
        Core.Workload.Bursty { rate = rat 3 2; size = 4 },
        "8381de83b59ae139baa5fbb9b62e3482" );
      ( "diurnal",
        Core.Workload.Diurnal
          { rate = rat 1 4; period = rat 400 1; trough = rat 1 10 },
        "d83481c81261775708354a5a8147c400" );
    ]

let test_gen_zipf_skew () =
  let count key arrivals =
    List.length
      (List.filter
         (fun (a : (int * int) Core.Workload.keyed) -> a.key = key)
         arrivals)
  in
  let uniform = drain (mk_gen ~ops:2000 ()) in
  let skewed = drain (mk_gen ~ops:2000 ~zipf:1.5 ()) in
  (* all keys are hit either way over 2000 draws *)
  Alcotest.(check bool) "uniform hits every key" true
    (List.for_all (fun k -> count k uniform > 0) (List.init 8 Fun.id));
  Alcotest.(check bool) "skew favours key 0 heavily" true
    (count 0 skewed > 3 * count 7 skewed);
  Alcotest.(check bool) "uniform is not that skewed" true
    (count 0 uniform < 3 * count 7 uniform)

let test_gen_bursty_and_diurnal () =
  let bursty =
    drain
      (mk_gen ~arrival:(Core.Workload.Bursty { rate = Rat.one; size = 4 })
         ~ops:64 ())
  in
  (* bursts arrive as groups of [size] simultaneous arrivals *)
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (a : (int * int) Core.Workload.keyed) ->
      Hashtbl.replace groups a.at
        (1 + Option.value ~default:0 (Hashtbl.find_opt groups a.at)))
    bursty;
  Alcotest.(check int) "16 bursts of 4" 16 (Hashtbl.length groups);
  Hashtbl.iter
    (fun _ n -> Alcotest.(check int) "burst size" 4 n)
    groups;
  let diurnal =
    drain
      (mk_gen
         ~arrival:
           (Core.Workload.Diurnal
              { rate = Rat.one; period = rat 100 1; trough = rat 1 10 })
         ~ops:200 ())
  in
  Alcotest.(check int) "diurnal emits all ops" 200 (List.length diurnal)

let test_route_round_robin_and_min_gap () =
  let gen = mk_gen ~ops:40 () in
  let min_gap = rat 5 1 in
  let route =
    Core.Workload.Route.create ~min_gap ~procs:2 ~keep:(fun _ -> true) gen
  in
  let rec pull proc acc =
    match Core.Workload.Route.next route ~proc with
    | None -> List.rev acc
    | Some (at, item) -> pull proc ((at, item) :: acc)
  in
  let p0 = pull 0 [] and p1 = pull 1 [] in
  Alcotest.(check int) "dealt evenly" 20 (List.length p0);
  Alcotest.(check int) "dealt evenly (p1)" 20 (List.length p1);
  let rec gaps_ok = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        Rat.ge (Rat.sub b a) min_gap && gaps_ok rest
    | _ -> true
  in
  Alcotest.(check bool) "per-proc spacing >= min_gap" true
    (gaps_ok p0 && gaps_ok p1);
  (* keep filter: only even keys pass, and the dropped ones are gone *)
  let filtered =
    Core.Workload.Route.create ~procs:1
      ~keep:(fun k -> k mod 2 = 0)
      (mk_gen ~ops:200 ())
  in
  let rec drain_route acc =
    match Core.Workload.Route.next filtered ~proc:0 with
    | None -> List.rev acc
    | Some (_, item) -> drain_route (item :: acc)
  in
  let kept = drain_route [] in
  Alcotest.(check bool) "only kept keys" true
    (List.for_all
       (fun (i : (int * int) Core.Workload.keyed) -> i.key mod 2 = 0)
       kept);
  Alcotest.(check bool) "some were dropped" true (List.length kept < 200);
  (* [pop] hands out the arrivals [next] does, as ring slots; a route
     with a [min_gap] needs [next]'s clamp *)
  let popped =
    let route =
      Core.Workload.Route.create ~procs:2 ~keep:(fun _ -> true)
        (mk_gen ~ops:40 ())
    in
    List.concat_map
      (fun proc ->
        let rec go acc =
          let i = Core.Workload.Route.pop route ~proc in
          if i < 0 then List.rev acc
          else
            go
              (( Core.Workload.Route.quanta route ~proc i,
                 Core.Workload.Route.key route ~proc i,
                 Core.Workload.Route.inv route ~proc i )
              :: acc)
        in
        go [])
      [ 0; 1 ]
  in
  let quanta at = Rat.num (Rat.mul_int at Core.Workload.Gen.quantum) in
  Alcotest.(check bool) "pop agrees with next" true
    (popped
    = List.map
        (fun (_, (a : (int * int) Core.Workload.keyed)) ->
          (quanta a.at, a.key, a.inv))
        (p0 @ p1));
  match
    Core.Workload.Route.pop
      (Core.Workload.Route.create ~min_gap ~procs:1 ~keep:(fun _ -> true)
         (mk_gen ()))
      ~proc:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pop on a min_gap route should be refused"

let contains haystack needle =
  let nlen = String.length needle and hlen = String.length haystack in
  let rec at i =
    i + nlen <= hlen && (String.sub haystack i nlen = needle || at (i + 1))
  in
  at 0

(* At a diurnal trough of 0 the intensity vanishes and the gap drawn
   there is infinite.  Quantized, such a gap (or any finite one too
   long for int quanta) wraps to one quantum, so the next arrival would
   come 1/1024 later instead of never.  Every entry that lowers an
   arrival refuses it by name: the generator, the sharded run's config
   and the scenario lowering. *)
let test_unrepresentable_gap_rejected () =
  let named f =
    match f () with
    | exception Invalid_argument m -> contains m "unrepresentable arrival gap"
    | _ -> false
  in
  let zero_trough =
    Core.Workload.Diurnal
      { rate = rat 4 1; period = Rat.one; trough = Rat.zero }
  in
  Alcotest.(check bool) "trough 0 refused by Gen.create" true
    (named (fun () -> mk_gen ~arrival:zero_trough ()));
  Alcotest.(check bool) "trough 0 refused even for 0 ops" true
    (named (fun () -> mk_gen ~arrival:zero_trough ~ops:0 ()));
  (* Longest Poisson gap at rate 2^-40: about 1.5e13 time units, 1.6e16
     quanta; a hundred fit in an int, a thousand do not. *)
  let slow = Core.Workload.Poisson { rate = rat 1 (1 lsl 40) } in
  Alcotest.(check bool) "100 slow gaps fit" false
    (named (fun () -> mk_gen ~arrival:slow ~ops:100 ()));
  Alcotest.(check bool) "1000 slow gaps refused" true
    (named (fun () -> mk_gen ~arrival:slow ~ops:1000 ()));
  Alcotest.(check bool) "a small positive trough is accepted" false
    (named (fun () ->
         mk_gen
           ~arrival:
             (Core.Workload.Diurnal
                { rate = rat 4 1; period = Rat.one; trough = rat 1 1000 })
           ()));
  let model = Sim.Model.make_optimal_eps ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) in
  Alcotest.(check bool) "trough 0 refused by Shard.Config.make" true
    (named (fun () ->
         Shard.Config.make ~shards:2 ~ops:100 ~arrival:zero_trough ~model
           ~algorithm:(Core.Runtime.Wtlw { x = rat 3 1 })
           ()));
  let o =
    Scenario.run
      (Scenario.make ~name:"zero-trough" ~dt:"queue" ~model
         ~algorithm:
           (Scenario.Wtlw { x = rat 3 1; knob = Core.Ablation.Paper })
         ~workload:
           (Scenario.Generated
              { arrival = zero_trough; zipf = 0.0; keys = 4; ops = 100 })
         ())
  in
  Alcotest.(check bool) "trough 0 refused by scenario lowering" true
    (match o.Scenario.Exec.diagnostic with
    | Some d -> contains d "unrepresentable arrival gap"
    | None -> false)

(* A nan skew exponent passes a [zipf < 0] test; its cumulative
   weights are all nan, so every draw lands on the last key.  It is
   refused by name, by the generator and by the sharded run's
   config. *)
let test_nan_zipf_rejected () =
  let named f =
    match f () with
    | exception Invalid_argument m -> contains m "zipf is nan"
    | _ -> false
  in
  Alcotest.(check bool) "nan refused by Gen.validate" true
    (named (fun () ->
         Core.Workload.Gen.validate ~arrival:(Core.Workload.Poisson { rate = Rat.one })
           ~zipf:Float.nan ~keys:8 ~ops:10 ()));
  Alcotest.(check bool) "nan refused by Gen.create" true
    (named (fun () -> mk_gen ~zipf:Float.nan ()));
  let model = Sim.Model.make_optimal_eps ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) in
  Alcotest.(check bool) "nan refused by Shard.Config.make" true
    (named (fun () ->
         Shard.Config.make ~shards:2 ~ops:2000 ~zipf:Float.nan
           ~arrival:(Core.Workload.Poisson { rate = Rat.one })
           ~model
           ~algorithm:(Core.Runtime.Wtlw { x = rat 3 1 })
           ()));
  (* An infinite one drew fine but left a report no JSON reader reads. *)
  Alcotest.(check bool) "infinite skew refused by name" true
    (named (fun () -> mk_gen ~zipf:Float.infinity ()))

(* Every process's [Route] feed is the reference deal: the [keep]-
   filtered [Gen.next] stream dealt round-robin in generation order,
   each arrival clamped to its process's previous one plus [min_gap].
   Processes pull in a random order, so one process can run far ahead
   of the others and their buffers grow and wrap. *)
let prop_route_is_round_robin_deal =
  QCheck.Test.make ~name:"route feeds equal a round-robin deal of the stream"
    ~count:200
    QCheck.(
      pair
        (quad (int_range 1 6) (int_range 0 8) (int_range 1 4) (int_range 0 3))
        (pair (int_range 0 300) (int_range 0 1_000_000)))
    (fun ((procs, gap, modulus, residue), (ops, seed)) ->
      let min_gap = rat gap 4 in
      let keep k = k mod modulus = residue mod modulus in
      let arrival = Core.Workload.Bursty { rate = rat 3 2; size = 3 } in
      let expected = Array.make procs [] in
      let last = Array.make procs (Rat.neg min_gap) in
      let dealt = ref 0 in
      List.iter
        (fun (a : (int * int) Core.Workload.keyed) ->
          if keep a.key then begin
            let p = !dealt mod procs in
            incr dealt;
            let at = Rat.max a.at (Rat.add last.(p) min_gap) in
            last.(p) <- at;
            expected.(p) <- (at, a) :: expected.(p)
          end)
        (drain (mk_gen ~arrival ~zipf:0.7 ~ops ~seed ()));
      let route =
        Core.Workload.Route.create ~min_gap ~procs ~keep
          (mk_gen ~arrival ~zipf:0.7 ~ops ~seed ())
      in
      let got = Array.make procs [] in
      let live = ref (List.init procs Fun.id) in
      let rng = Random.State.make [| seed |] in
      while !live <> [] do
        let proc = List.nth !live (Random.State.int rng (List.length !live)) in
        match Core.Workload.Route.next route ~proc with
        | Some item -> got.(proc) <- item :: got.(proc)
        | None -> live := List.filter (( <> ) proc) !live
      done;
      Array.for_all2
        (fun e g ->
          List.equal
            (fun (t1, (a1 : (int * int) Core.Workload.keyed)) (t2, a2) ->
              Rat.equal t1 t2 && Rat.equal a1.at a2.at && a1.key = a2.key
              && a1.inv = a2.inv)
            e g)
        expected got)

(* The first 10 000 arrivals of the load benchmark's stream shape
   (32 keys, Zipf 0.8, tagged queue invocations, seed 1), times in
   quanta and keys, pinned at the commit before the key draw stopped
   boxing its uniform: each arrival process must emit them byte for
   byte. *)
let test_gen_stream_pinned () =
  let digest arrival =
    let gen =
      Core.Workload.Gen.create ~arrival ~zipf:0.8 ~keys:32 ~ops:10_000 ~seed:1
        ~invocation:(fun rng ~key:_ ~seq ->
          Spec.Fifo_queue.gen_tagged rng ~tag:seq)
        ()
    in
    let b = Buffer.create 200_000 in
    let rec go () =
      match Core.Workload.Gen.next gen with
      | None -> ()
      | Some a ->
          Printf.bprintf b "%d %d\n"
            (Rat.num (Rat.mul_int a.at Core.Workload.Gen.quantum))
            a.key;
          go ()
    in
    go ();
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (label, arrival, expected) ->
      Alcotest.(check string) (label ^ " stream digest") expected
        (digest arrival))
    [
      ( "poisson",
        Core.Workload.Poisson { rate = rat 1 4 },
        "e1b97ea32c068a2e5092df630cbd05ff" );
      ( "bursty",
        Core.Workload.Bursty { rate = rat 3 2; size = 4 },
        "6e59f94490bfe115c73719bdddc66435" );
      ( "diurnal",
        Core.Workload.Diurnal
          { rate = rat 1 4; period = rat 400 1; trough = rat 1 10 },
        "e8dae9ba45aee27169e552583904930f" );
    ]

(* [Sim.Uniform] draws what [Random.State.float rng 1.0] draws, bit for
   bit, and leaves the state where it does. *)
let test_uniform_is_stdlib () =
  let a = Random.State.make [| 7; 1 |] in
  let b = Random.State.copy a in
  for i = 1 to 100_000 do
    let stdlib = Random.State.float a 1.0 in
    let ours = float_of_int (Sim.Uniform.bits b) *. Sim.Uniform.scale in
    if Int64.bits_of_float stdlib <> Int64.bits_of_float ours then
      Alcotest.failf "draw %d: stdlib %h, Uniform %h" i stdlib ours
  done;
  Alcotest.(check int) "states in step" (Random.State.bits a)
    (Random.State.bits b)

(* ---------------- delay model ---------------- *)

(* Delays [Net.random] draws for two seeds, pinned before its grid of
   [granularity + 1] delays was precomputed: a seed must keep drawing
   the same delays, in the same order. *)
let test_net_random_pinned () =
  let draws net =
    String.concat " "
      (List.init 16 (fun seq ->
           Rat.to_string
             (Sim.Net.delay net ~src:(seq mod 3) ~dst:((seq + 1) mod 3)
                ~time:(rat seq 2) ~seq)))
  in
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  Alcotest.(check string) "random_model, seed 9" "39/4 19/2 37/4 21/2 10 47/4 41/4 11 11 11 43/4 35/4 8 37/4 19/2 10"
    (draws (Sim.Net.random_model ~seed:9 model));
  Alcotest.(check string) "lo 3/2, hi 7, granularity 5, seed 1234" "37/10 13/5 7 3/2 37/10 24/5 7 3/2 59/10 3/2 13/5 7 3/2 59/10 7 59/10"
    (draws
       (Sim.Net.random ~seed:1234 ~lo:(rat 3 2) ~hi:(rat 7 1) ~granularity:5))

(* A grid keeps its first point, its step and its count, and folds
   only its first two points and its last.  Every point is an integer
   combination of the first two, so a run's quantum must be the one
   all seventeen points give: for every cell of the reference grid, a
   matrix holding each point of the cell's delay grid gives the same
   quantum as the grid. *)
let test_net_quantum_reference_grid () =
  let grid = Sweep.default_grid in
  let checked = ref 0 in
  List.iter
    (fun (c : Sweep.cell) ->
      let (module E : Scenario.Packed_type.RUNNER) =
        Scenario.Packed_type.runner c.dt
      in
      match E.config_of (Scenario.of_sweep_cell grid c) with
      | Error e -> Alcotest.fail e
      | Ok cfg ->
          let m = cfg.model in
          let point k =
            Rat.add (Sim.Model.min_delay m) (Rat.mul_int (Rat.div_int m.u 16) (k mod 17))
          in
          let every =
            Sim.Net.matrix
              (Array.init 5 (fun i -> Array.init 5 (fun j -> point ((5 * i) + j))))
          in
          incr checked;
          Alcotest.(check int)
            (Sweep.cell_key grid c)
            (E.R.quantum { cfg with delay = every })
            (E.R.quantum cfg))
    (List.filter
       (fun (c : Sweep.cell) -> c.delays = Sweep.Random_delays)
       (Sweep.cells grid));
  Alcotest.(check bool) "every reference cell draws random delays" true
    (!checked = List.length (Sweep.cells grid))

(* Scaling a grid scales its first point and its step, and the scaled
   grid shares the original's random state: drawing from two fresh
   grids of one seed, one scaled by [k], gives the same delays up to
   the factor [k]. *)
let prop_net_scale_commutes =
  QCheck.Test.make ~name:"draw then scale = scale then draw" ~count:200
    QCheck.(
      quad (int_range 0 10_000) (pair (int_range (-50) 50) (int_range 1 12))
        (pair (int_range 0 60) (int_range 1 20))
        (int_range 1 1000))
    (fun (seed, (lo_num, lo_den), (span, granularity), k) ->
      let lo = rat lo_num lo_den in
      let hi = Rat.add lo (rat span 7) in
      let net () = Sim.Net.random ~seed ~lo ~hi ~granularity in
      let draws net =
        List.init 40 (fun seq ->
            Sim.Net.delay net ~src:0 ~dst:1 ~time:Rat.zero ~seq)
      in
      List.for_all2
        (fun a b -> Rat.equal (Rat.mul_int a k) b)
        (draws (net ()))
        (draws (Sim.Net.scale k (net ()))))

(* A draw in quanta computes its point on ints; a grid of fractions
   builds its points on its first draw.  Either way a draw allocates
   nothing. *)
let test_net_draw_allocates_nothing () =
  let model = Sim.Model.make_optimal_eps ~n:4 ~d:(rat 12 1) ~u:(rat 4 1) in
  List.iter
    (fun (label, net) ->
      let draw () = Sim.Net.delay net ~src:0 ~dst:1 ~time:Rat.zero ~seq:0 in
      ignore (draw ());
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (draw ()))
      done;
      Alcotest.(check (float 0.)) label 0. (Gc.minor_words () -. before))
    [
      ("in quanta", Sim.Net.scale 4 (Sim.Net.random_model ~seed:9 model));
      ("in model units", Sim.Net.random_model ~seed:9 model);
    ]

(* ---------------- histogram ---------------- *)

let test_hist_quantiles () =
  let h = Core.Metrics.Hist.create () in
  Alcotest.(check bool) "empty has no quantiles" true
    (Core.Metrics.Hist.quantiles h = None);
  for i = 1 to 1000 do
    Core.Metrics.Hist.add h (rat i 1)
  done;
  Alcotest.(check int) "count" 1000 (Core.Metrics.Hist.count h);
  let q = Option.get (Core.Metrics.Hist.quantiles h) in
  (* log-bucketed upper edges: within one bucket width (ratio
     2^(1/16) ~ 4.4%) above the exact quantile, never below it *)
  let near exact v = v >= exact && v <= exact *. 1.05 in
  Alcotest.(check bool) "p50 in bucket of 500" true (near 500.0 q.p50);
  Alcotest.(check bool) "p99 in bucket of 990" true (near 990.0 q.p99);
  Alcotest.(check bool) "p999 in bucket of 999" true (near 999.0 q.p999);
  (* quantiles are clamped into the exact observed range *)
  Alcotest.(check (float 1e-9) "p=1 clamps to exact max" 1000.0
    (Core.Metrics.Hist.quantile h 1.0));
  let s = Option.get (Core.Metrics.Hist.summary h) in
  Alcotest.(check int) "summary count" 1000 s.count;
  Alcotest.(check string) "summary max exact" "1000" (Rat.to_string s.max)

let test_hist_merge_partition_independent () =
  let whole = Core.Metrics.Hist.create () in
  let parts = Array.init 4 (fun _ -> Core.Metrics.Hist.create ()) in
  let rng = Random.State.make [| 99 |] in
  for i = 0 to 999 do
    let v = rat (1 + Random.State.int rng 5000) 7 in
    Core.Metrics.Hist.add whole v;
    Core.Metrics.Hist.add parts.(i mod 4) v
  done;
  let merged = Core.Metrics.Hist.create () in
  Array.iter (fun p -> Core.Metrics.Hist.merge merged p) parts;
  Alcotest.(check int) "merged count" (Core.Metrics.Hist.count whole)
    (Core.Metrics.Hist.count merged);
  let qw = Option.get (Core.Metrics.Hist.quantiles whole) in
  let qm = Option.get (Core.Metrics.Hist.quantiles merged) in
  Alcotest.(check bool) "identical quantiles" true (qw = qm);
  let render h = Format.asprintf "%a" Core.Metrics.Hist.pp h in
  Alcotest.(check string) "identical rendering" (render whole) (render merged)

(* The windowed histogram against a dense reference: counts indexed
   from bucket 0, the layout it replaced, with the same bucketing and
   the same quantile walk.  Samples span zero latencies, values below
   the bucket-0 edge and some forty octaves; histograms are combined
   by random merge trees. *)
module Dense = struct
  let lo = 1.0 /. 1024.0
  let log_g = log 2.0 /. 16.0

  let bucket v =
    let f = Rat.to_float v in
    if f <= lo then 0 else 1 + int_of_float (Float.floor (log (f /. lo) /. log_g))

  let edge i = if i = 0 then 0.0 else lo *. exp (float_of_int i *. log_g)

  let quantile samples q =
    let count = List.length samples in
    if count = 0 then nan
    else begin
      let counts = Array.make (1 + List.fold_left (fun m v -> max m (bucket v)) 0 samples) 0 in
      List.iter (fun v -> counts.(bucket v) <- counts.(bucket v) + 1) samples;
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      let cum = ref 0 and found = ref (-1) in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if !found < 0 && !cum >= rank then found := i)
        counts;
      let lo_v = Rat.to_float (Rat.min_list samples)
      and hi_v = Rat.to_float (Rat.max_list samples) in
      Float.min (Float.max (edge (max 0 !found)) lo_v) hi_v
    end
end

type hist_tree = Leaf of Rat.t list | Node of hist_tree * hist_tree

let rec tree_samples = function
  | Leaf l -> l
  | Node (a, b) -> tree_samples a @ tree_samples b

let rec tree_hist = function
  | Leaf l ->
      let h = Core.Metrics.Hist.create () in
      List.iter (Core.Metrics.Hist.add h) l;
      h
  | Node (a, b) ->
      let h = tree_hist a in
      Core.Metrics.Hist.merge h (tree_hist b);
      h

let arb_hist_tree =
  let open QCheck.Gen in
  let sample =
    frequency
      [
        (1, return Rat.zero);
        (1, map (fun k -> rat k 4096) (int_range 1 4));
        (3, map2 rat (int_range 1 (1 lsl 30)) (oneofl [ 1; 3; 1024; 4096 ]));
        (3, map (fun k -> rat (k + 10) 1) (int_range 0 40));
      ]
  in
  let leaf = map (fun l -> Leaf l) (list_size (0 -- 12) sample) in
  let tree =
    sized_size (0 -- 5)
    @@ fix (fun self depth ->
           if depth = 0 then leaf
           else
             frequency
               [ (1, leaf); (2, map2 (fun a b -> Node (a, b)) (self (depth - 1)) (self (depth - 1))) ])
  in
  QCheck.make
    ~print:(fun t ->
      String.concat " " (List.map Rat.to_string (tree_samples t)))
    tree

let prop_hist_matches_dense =
  QCheck.Test.make ~name:"windowed hist matches a dense reference" ~count:500
    arb_hist_tree (fun t ->
      let samples = tree_samples t in
      let h = tree_hist t in
      let flat = Core.Metrics.Hist.create () in
      List.iter (Core.Metrics.Hist.add flat) samples;
      let same_float a b = (Float.is_nan a && Float.is_nan b) || a = b in
      Core.Metrics.Hist.count h = List.length samples
      && Core.Metrics.Hist.summary h = Core.Metrics.summarize samples
      && List.for_all
           (fun q -> same_float (Core.Metrics.Hist.quantile h q) (Dense.quantile samples q))
           [ 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ]
      (* the window is a function of the samples: merge order and
         partition leave no trace in the value *)
      && h = flat)

let mk_op ~proc ~inv ~s ~e : (string, unit) Sim.Trace.operation =
  { proc; inv; resp = (); inv_time = rat s 1; resp_time = rat e 1 }

let test_latency_and_summary () =
  let op = mk_op ~proc:0 ~inv:"x" ~s:3 ~e:10 in
  Alcotest.(check string) "latency" "7" (Rat.to_string (Core.Metrics.latency op));
  Alcotest.(check bool) "summarize empty" true (Core.Metrics.summarize [] = None);
  match Core.Metrics.summarize [ rat 4 1; rat 6 1; rat 11 1 ] with
  | None -> Alcotest.fail "expected summary"
  | Some s ->
      Alcotest.(check int) "count" 3 s.count;
      Alcotest.(check string) "min" "4" (Rat.to_string s.min);
      Alcotest.(check string) "max" "11" (Rat.to_string s.max);
      Alcotest.(check string) "mean" "7" (Rat.to_string s.mean)

let test_group_by_op () =
  let ops =
    [
      mk_op ~proc:0 ~inv:"read" ~s:0 ~e:2;
      mk_op ~proc:1 ~inv:"write" ~s:0 ~e:5;
      mk_op ~proc:0 ~inv:"read" ~s:10 ~e:14;
      mk_op ~proc:1 ~inv:"write" ~s:10 ~e:13;
    ]
  in
  let by_op = Core.Metrics.by_op ~op_of:Fun.id ops in
  Alcotest.(check int) "two groups" 2 (List.length by_op);
  let read = List.assoc "read" by_op in
  Alcotest.(check string) "read max" "4" (Rat.to_string read.max);
  Alcotest.(check string) "read min" "2" (Rat.to_string read.min);
  let write = List.assoc "write" by_op in
  Alcotest.(check string) "write mean" "4" (Rat.to_string write.mean);
  (* First-seen order is preserved. *)
  Alcotest.(check (list string)) "group order" [ "read"; "write" ]
    (List.map fst by_op)

let test_max_latency () =
  Alcotest.(check bool) "empty" true (Core.Metrics.max_latency [] = None);
  let ops = [ mk_op ~proc:0 ~inv:"a" ~s:0 ~e:3; mk_op ~proc:0 ~inv:"b" ~s:5 ~e:11 ] in
  Alcotest.(check string) "max over ops" "6"
    (Rat.to_string (Option.get (Core.Metrics.max_latency ops)))

(* ---------------- allocation ---------------- *)

(* An arrival the route's filter drops draws its gap, key and
   invocation and builds nothing else; a kept one is dealt into a ring
   and popped as a slot.  Over a stream whose invocations are
   immediates (drawn from the generator's RNG all the same), popping
   every arrival after the first, which creates the ring, allocates 0
   minor words, for every arrival process. *)
let test_dropped_arrivals_allocate_nothing () =
  List.iter
    (fun (label, arrival) ->
      let gen =
        Core.Workload.Gen.create ~arrival ~zipf:0.8 ~keys:32 ~ops:10_000
          ~seed:1
          ~invocation:(fun rng ~key:_ ~seq:_ ->
            if Random.State.bool rng then Spec.Fifo_queue.Dequeue
            else Spec.Fifo_queue.Peek)
          ()
      in
      let route =
        Core.Workload.Route.create ~procs:1 ~keep:(fun k -> k mod 4 = 0) gen
      in
      let pop () = Core.Workload.Route.pop route ~proc:0 in
      ignore (pop ());
      let kept = ref 1 in
      let before = Gc.minor_words () in
      while pop () >= 0 do
        incr kept
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check bool) (label ^ ": some arrivals dropped") true
        (!kept > 0 && !kept < 10_000);
      Alcotest.(check (float 0.)) (label ^ ": nothing allocated") 0. words)
    [
      ("poisson", Core.Workload.Poisson { rate = rat 1 4 });
      ("bursty", Core.Workload.Bursty { rate = rat 3 2; size = 4 });
      ( "diurnal",
        Core.Workload.Diurnal
          { rate = rat 1 4; period = rat 400 1; trough = rat 1 10 } );
    ]

(* A latency that is a whole number of the histogram's quanta lands in
   its bucket without a boxed float: once the window covers the
   samples, adding them allocates nothing. *)
(* Grouped keeps its keys in first-seen order in arrays that start at
   three slots and double: seven keys grow them twice.  A key equal to
   one seen before, though not the same string, is that key, and once
   a key has been seen adding to it allocates nothing. *)
let test_grouped_add_allocates_nothing () =
  let module G = Core.Metrics.Grouped in
  let g = G.create () in
  let keys = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  Array.iteri (fun i k -> G.add g k (Rat.of_int i)) keys;
  G.add g (String.make 1 'c') (Rat.of_int 10_000);
  let before = Gc.minor_words () in
  for i = 0 to 699 do
    G.add g keys.(i mod 7) (Rat.of_int i)
  done;
  Alcotest.(check (float 0.)) "no word per add" 0. (Gc.minor_words () -. before);
  let summaries = G.summaries g in
  Alcotest.(check (list string)) "first-seen order" (Array.to_list keys)
    (List.map fst summaries);
  Alcotest.(check (list int)) "counts"
    [ 101; 101; 102; 101; 101; 101; 101 ]
    (List.map (fun (_, (s : Core.Metrics.summary)) -> s.count) summaries);
  Alcotest.(check string) "max of c" "10000"
    (Rat.to_string (List.assoc "c" summaries).max)

let test_hist_add_allocates_nothing () =
  let h = Core.Metrics.Hist.create ~quantum:1024 () in
  let samples = Array.init 10_000 (fun i -> Rat.of_int ((i * 37) + 5)) in
  Array.iter (Core.Metrics.Hist.add h) samples;
  let before = Gc.minor_words () in
  for i = 0 to Array.length samples - 1 do
    Core.Metrics.Hist.add h samples.(i)
  done;
  Alcotest.(check (float 0.)) "no word per sample" 0.
    (Gc.minor_words () -. before);
  Alcotest.(check int) "every sample counted" 20_000 (Core.Metrics.Hist.count h)

(* A paced run pops each arrival from the route and hands the engine
   only what [lift] builds.  Its first [n] hand-offs run back to back,
   before any event: sampled on entry to [lift], the words between two
   of them are one whole hand-off, dropped arrivals included, and must
   be exactly the 3-word keyed invocation the previous [lift] built.
   The route's rings are created before the run, by one pop per
   process, and the first hand-off creates the engine's event queue,
   so the hand-offs from the second on are compared. *)
module KQ = Spec.Keyed.Make (Spec.Fifo_queue)
module RK = Core.Runtime.Make (KQ)

let test_paced_handoff_allocates_only_lift () =
  let n = 8 in
  let model = Sim.Model.make_optimal_eps ~n ~d:(rat 12 1) ~u:(rat 4 1) in
  let gen =
    Core.Workload.Gen.create
      ~arrival:(Core.Workload.Poisson { rate = rat 1 4 })
      ~keys:8 ~ops:400 ~seed:3
      ~invocation:(fun _ ~key:_ ~seq:_ -> Spec.Fifo_queue.Dequeue)
      ()
  in
  let route =
    Core.Workload.Route.create ~procs:n ~keep:(fun k -> k mod 2 = 0) gen
  in
  for proc = 0 to n - 1 do
    ignore (Core.Workload.Route.pop route ~proc)
  done;
  let samples = Array.make 400 0. and lifted = ref 0 in
  let lift ~key inv =
    samples.(!lifted) <- Gc.minor_words ();
    incr lifted;
    { KQ.key; inv }
  in
  let report =
    RK.run
      (RK.Config.make ~check:false ~model
         ~offsets:(Array.make n Rat.zero)
         ~delay:(Sim.Net.random_model ~seed:1 model)
         ~algorithm:(RK.Wtlw { x = rat 3 1 })
         ~workload:
           (RK.Paced
              { route; lift; tick = rat 1 Core.Workload.Gen.quantum })
         ())
  in
  Alcotest.(check int) "every lifted arrival ran" !lifted
    (List.length report.operations);
  Alcotest.(check bool) "arrivals were dropped" true (!lifted + n < 400);
  for i = 2 to n - 1 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "hand-off %d: the keyed invocation only" i)
      3.
      (samples.(i) -. samples.(i - 1))
  done

let () =
  Alcotest.run "workload_metrics"
    [
      ( "workload",
        [
          Alcotest.test_case "open loop" `Quick test_open_loop;
          Alcotest.test_case "random deterministic" `Quick
            test_random_open_loop_deterministic;
          Alcotest.test_case "concurrent bursts" `Quick
            test_concurrent_bursts_overlap;
          Alcotest.test_case "sort" `Quick test_sort_schedule;
          Alcotest.test_case "sort tie-break by proc" `Quick
            test_sort_schedule_tie_break;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic and monotone" `Quick
            test_gen_deterministic_and_monotone;
          Alcotest.test_case "zipf skew" `Quick test_gen_zipf_skew;
          Alcotest.test_case "bursty and diurnal" `Quick
            test_gen_bursty_and_diurnal;
          Alcotest.test_case "10 000 arrivals pinned" `Quick
            test_gen_stream_pinned;
          Alcotest.test_case "uniform draw is the stdlib's" `Quick
            test_uniform_is_stdlib;
          Alcotest.test_case "route round-robin, min gap" `Quick
            test_route_round_robin_and_min_gap;
          QCheck_alcotest.to_alcotest prop_route_is_round_robin_deal;
          Alcotest.test_case "unrepresentable gaps refused" `Quick
            test_unrepresentable_gap_rejected;
          Alcotest.test_case "nan zipf refused" `Quick test_nan_zipf_rejected;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "dropped arrivals allocate nothing" `Quick
            test_dropped_arrivals_allocate_nothing;
          Alcotest.test_case "hist add allocates nothing" `Quick
            test_hist_add_allocates_nothing;
          Alcotest.test_case "grouped add allocates nothing" `Quick
            test_grouped_add_allocates_nothing;
          Alcotest.test_case "paced hand-off allocates only the lift" `Quick
            test_paced_handoff_allocates_only_lift;
        ] );
      ( "delay model",
        [
          Alcotest.test_case "random draws pinned" `Quick
            test_net_random_pinned;
          Alcotest.test_case "quantum unchanged on the reference grid" `Quick
            test_net_quantum_reference_grid;
          QCheck_alcotest.to_alcotest prop_net_scale_commutes;
          Alcotest.test_case "a draw allocates nothing" `Quick
            test_net_draw_allocates_nothing;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "latency and summary" `Quick
            test_latency_and_summary;
          Alcotest.test_case "group by op" `Quick test_group_by_op;
          Alcotest.test_case "max latency" `Quick test_max_latency;
          Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "hist merge partition-independent" `Quick
            test_hist_merge_partition_independent;
          QCheck_alcotest.to_alcotest prop_hist_matches_dense;
        ] );
    ]
