(* Seed-deterministic random scenario generation.

   [gen ~seed] is a pure function of [seed]: the same seed always
   yields a byte-identical scenario (the round-trip test pins this).
   Generated scenarios are drawn to *certify* — they exercise the ten
   bundled types, the three algorithms, the delay families, the
   reliable channel and the temporal predicates, and a healthy stack
   passes every one of them — so a pinned-seed batch doubles as a
   randomized end-to-end suite (the CI scenario-smoke job).  Failures
   are injected separately, by flipping a knob on a generated or
   builtin scenario and handing it to the shrinker. *)

open Types

let model_points =
  [
    (3, (10, 1), (4, 1), (1, 1));
    (4, (8, 1), (2, 1), (1, 2));
  ]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let gen ~seed : t =
  let rng = Random.State.make [| 0x53434e; seed |] in
  let dt = pick rng Packed_type.keys in
  let n, (dn, dd), (un, ud), (en, ed) = pick rng model_points in
  let model =
    Sim.Model.make ~n ~d:(Rat.make dn dd) ~u:(Rat.make un ud)
      ~eps:(Rat.make en ed)
  in
  let sub_seed = 1 + Random.State.int rng 0x3fffffff in
  let algorithm =
    match Random.State.int rng 6 with
    | 0 | 1 ->
        (* X = 0: fastest accessors *)
        Wtlw { x = Rat.zero; knob = Core.Ablation.Paper }
    | 2 | 3 ->
        (* X = (d - eps)/2: the balanced point *)
        Wtlw
          {
            x = Rat.div_int (Rat.sub model.Sim.Model.d model.Sim.Model.eps) 2;
            knob = Core.Ablation.Paper;
          }
    | 4 -> Centralized
    | _ -> Tob
  in
  (* Faults come paired with the reliable channel (the recovered leg of
     the robustness matrix), so the scenario still certifies; only
     closed-loop workloads carry faults — explicit open-loop spacing
     assumes the direct model's latency bound. *)
  let faulty = Random.State.int rng 4 = 0 in
  let delays =
    match Random.State.int rng (if faulty then 3 else 4) with
    | 0 -> Random_delays
    | 1 -> Max_delays
    | 2 -> Min_delays
    | _ ->
        (* the uniform point with a few admissible excursions to the
           envelope's edges *)
        let m = Sim.Net.uniform_matrix ~n (uniform_point model) in
        let excursions = 1 + Random.State.int rng 3 in
        for _ = 1 to excursions do
          let i = Random.State.int rng n and j = Random.State.int rng n in
          m.(i).(j) <-
            (if Random.State.bool rng then model.Sim.Model.d
             else Sim.Model.min_delay model)
        done;
        Matrix m
  in
  let faults, reliable =
    if faulty then
      ( Sim.Fault.plan ~seed:sub_seed
          [ Sim.Fault.drops (if Random.State.bool rng then 0.05 else 0.1) ],
        true )
    else (Sim.Fault.none, false)
  in
  let workload =
    if faulty then
      Closed_loop { per_proc = 1 + Random.State.int rng 3; think = Rat.make 1 2 }
    else
      match Random.State.int rng 3 with
      | 0 ->
          Closed_loop
            { per_proc = 1 + Random.State.int rng 3; think = Rat.make 1 2 }
      | 1 ->
          Generated
            {
              arrival =
                (if Random.State.bool rng then
                   Core.Workload.Poisson { rate = Rat.make 1 4 }
                 else Core.Workload.Bursty { rate = Rat.make 1 4; size = 3 });
              zipf = (if Random.State.bool rng then 0.0 else 0.9);
              keys = 8;
              ops = 16 + Random.State.int rng 32;
            }
      | _ ->
          (* explicit open loop over the type's canonical samples,
             spaced beyond the worst-case latency 2d + eps *)
          let pt = Option.get (Packed_type.find dt) in
          let (module T : Spec.Data_type.S) = Packed_type.modl pt in
          let ops = List.map fst T.operations in
          let spacing =
            Rat.add
              (Rat.add (Rat.mul_int model.Sim.Model.d 2) model.Sim.Model.eps)
              Rat.one
          in
          let per_proc = 1 + Random.State.int rng 2 in
          let entries =
            List.concat
              (List.init n (fun proc ->
                   List.init per_proc (fun k ->
                       {
                         proc;
                         at =
                           Rat.add Rat.one
                             (Rat.add
                                (Rat.mul_int spacing k)
                                (Rat.make proc (2 * n)));
                         op = Sample { op = pick rng ops; index = 0 };
                       })))
          in
          Explicit entries
  in
  let checker =
    match workload with
    | Explicit _ when Random.State.bool rng -> Core.Runtime.Wing_gong
    | _ -> Core.Runtime.Monitor
  in
  let latency_cap =
    Rat.add (Rat.mul_int model.Sim.Model.d 2) model.Sim.Model.eps
  in
  let predicate =
    if reliable then Finally (Pending_le 0)
    else
      And
        ( And (Finally (Pending_le 0), Finally Converged),
          Always (Latency_le latency_cap) )
  in
  make
    ~name:(Printf.sprintf "gen-%d" seed)
    ~dt ~model ~delays ~faults ~reliable ~checker ~algorithm ~workload
    ~seed:sub_seed ~max_events:500_000 ~max_check_nodes:5_000_000
    ~expect:Certify ~predicate ()

let batch ~seed ~count = List.init count (fun i -> gen ~seed:(seed + i))
