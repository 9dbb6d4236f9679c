(* The stdlib's [Random.State.float rng 1.0] is [float52 rng *. 1.0],
   where [float52] shifts [bits64] right by 11 and redraws on 0. *)
let rec bits rng =
  let b =
    Int64.to_int (Int64.shift_right_logical (Random.State.bits64 rng) 11)
  in
  if b = 0 then bits rng else b

let scale = 0x1.p-53
