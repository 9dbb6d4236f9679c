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

(* The largest pairwise skew of an offset vector is its spread, max -
   min: one pass that keeps two of the offsets, so it allocates nothing
   beyond the one subtraction, and nothing at all on integers. *)
let max_skew offsets =
  let n = Array.length offsets in
  if n = 0 then Rat.zero
  else begin
    let lo = ref offsets.(0) and hi = ref offsets.(0) in
    for i = 1 to n - 1 do
      lo := Rat.min !lo offsets.(i);
      hi := Rat.max !hi offsets.(i)
    done;
    Rat.sub !hi !lo
  end

let skew_valid m offsets =
  if Array.length offsets <> m.n then
    invalid_arg "Model.skew_valid: offsets array has wrong length";
  Rat.le (max_skew offsets) m.eps

let pp ppf m =
  Format.fprintf ppf "{n=%d; d=%a; u=%a; eps=%a}" m.n Rat.pp m.d Rat.pp m.u
    Rat.pp m.eps
