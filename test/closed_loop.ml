(* The closed-loop workload [Core.Runtime] drives, for tests that run a
   cluster's engine directly: each of the [n] processes performs
   [per_proc] operations drawn from [gen], the first at [proc / 2n] and
   each later one [think] after the previous response, all from one
   RNG seeded with [seed].  Runs the engine to quiescence and returns
   its trace. *)
let run engine ~n ~per_proc ~think ~seed gen =
  let rng = Random.State.make [| seed |] in
  let remaining = Array.make n per_proc in
  Sim.Engine.set_response_callback engine (fun ~proc ~inv:_ ~resp:_ ~time ->
      if remaining.(proc) > 0 then begin
        remaining.(proc) <- remaining.(proc) - 1;
        Sim.Engine.schedule_invoke engine ~at:(Rat.add time think) ~proc
          (gen rng)
      end);
  if per_proc > 0 then
    for proc = 0 to n - 1 do
      remaining.(proc) <- remaining.(proc) - 1;
      Sim.Engine.schedule_invoke engine ~at:(Rat.make proc (2 * n)) ~proc
        (gen rng)
    done;
  Sim.Engine.run engine;
  Sim.Engine.trace engine
