type t = { n : int; d : Rat.t; u : Rat.t; eps : Rat.t }

let make ~n ~d ~u ~eps =
  if n < 2 then invalid_arg "Model.make: need at least 2 processes";
  if Rat.sign d <= 0 then invalid_arg "Model.make: d must be positive";
  if Rat.sign u < 0 then invalid_arg "Model.make: u must be non-negative";
  if Rat.gt u d then invalid_arg "Model.make: u must be at most d";
  if Rat.sign eps < 0 then invalid_arg "Model.make: eps must be non-negative";
  { n; d; u; eps }

let optimal_eps_of ~n ~u = Rat.mul u (Rat.make (n - 1) n)
(* [make] checks [n] before the optimal eps divides by it. *)
let make_optimal_eps ~n ~d ~u =
  { (make ~n ~d ~u ~eps:Rat.zero) with eps = optimal_eps_of ~n ~u }
let min_delay m = Rat.sub m.d m.u
let optimal_eps m = optimal_eps_of ~n:m.n ~u:m.u
let delay_valid m delay = Rat.in_range ~lo:(min_delay m) ~hi:m.d delay

let skew_valid m offsets =
  if Array.length offsets <> m.n then
    invalid_arg "Model.skew_valid: offsets array has wrong length";
  let ok = ref true in
  Array.iter
    (fun ci ->
      Array.iter
        (fun cj -> if Rat.gt (Rat.abs (Rat.sub ci cj)) m.eps then ok := false)
        offsets)
    offsets;
  !ok

let pp ppf m =
  Format.fprintf ppf "{n=%d; d=%a; u=%a; eps=%a}" m.n Rat.pp m.d Rat.pp m.u
    Rat.pp m.eps
