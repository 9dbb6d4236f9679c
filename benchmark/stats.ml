(* Order statistics over the repetitions of one metric. *)

let sorted values = List.sort Float.compare values

let median values =
  match sorted values with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the same rule as Python's
   [statistics.quantiles(data, n=4)] (the "exclusive" method), so the
   spreads printed here are the ones a reader recomputes from the
   stored values. *)
let quartiles values =
  let a = Array.of_list (sorted values) in
  let ld = Array.length a in
  match ld with
  | 0 -> (Float.nan, Float.nan)
  | 1 -> (a.(0), a.(0))
  | _ ->
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 3)

(* Interquartile distance as a share of the median; 0 for a constant
   sample. *)
let spread values =
  let q1, q3 = quartiles values in
  let m = median values in
  if m = 0. then 0. else Float.abs (q3 -. q1) /. Float.abs m
