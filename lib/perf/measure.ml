type metrics = {
  wall_ns : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  instructions : int64 option;
}

let monotonic_ns = Core.Clock.monotonic_ns
external perf_open : unit -> int = "repro_perf_open"
external perf_start : int -> unit = "repro_perf_start"
external perf_stop : int -> int64 = "repro_perf_stop"

(* One counter fd per process, opened on first use; -1 means the
   kernel refused (container, missing PMU) and we fall back to
   allocation metrics alone. *)
let counter_fd = lazy (perf_open ())

let measure f =
  let fd = Lazy.force counter_fd in
  let s0 = Gc.quick_stat () in
  (* quick_stat's minor_words only advances at collection boundaries;
     Gc.minor_words reads the live allocation pointer, so small
     workloads that never trigger a minor collection still count. *)
  let mw0 = Gc.minor_words () in
  let t0 = monotonic_ns () in
  if fd >= 0 then perf_start fd;
  let result = f () in
  let instructions =
    if fd >= 0 then
      let n = perf_stop fd in
      if Int64.compare n 0L < 0 then None else Some n
    else None
  in
  let t1 = monotonic_ns () in
  let mw1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( result,
    {
      wall_ns = t1 - t0;
      minor_words = mw1 -. mw0;
      promoted_words = s1.promoted_words -. s0.promoted_words;
      major_words = s1.major_words -. s0.major_words;
      minor_collections = s1.minor_collections - s0.minor_collections;
      major_collections = s1.major_collections - s0.major_collections;
      instructions;
    } )
