external monotonic_ns : unit -> int = "repro_monotonic_ns"

let now_s () = float_of_int (monotonic_ns ()) *. 1e-9
