(* Representation: a value of type [t] is either an immediate OCaml
   [int] [n], standing for the integer rational n/1, or a pointer to a
   [frac] block {f_num; f_den} with f_den >= 2 and gcd(|f_num|, f_den)
   = 1.  The representation is canonical — den = 1 values are ALWAYS
   immediate — so structural equality, polymorphic hashing and
   marshalling all agree with {!equal}/{!hash}.

   This is the same small-integer unboxing zarith uses for [Z.t]: the
   common case in this repository (integer timestamps, unit delays)
   carries plain machine-int arithmetic with zero allocation and zero
   gcd work, promoting to the exact cross-multiplication path only
   when a true fraction is involved or the int arithmetic would
   overflow the 63-bit range.  The [Obj] casts never escape this
   module: every constructor goes through [of_int]/[make], which
   enforce canonicity. *)

type t = Obj.t
type frac = { f_num : int; f_den : int }

exception Overflow

let[@inline] is_immediate (a : t) = Obj.is_int a
let[@inline] unsafe_int (a : t) : int = Obj.obj a
let[@inline] unsafe_frac (a : t) : frac = Obj.obj a
let of_int (n : int) : t = Obj.repr n
let[@inline] frac num den : t = Obj.repr { f_num = num; f_den = den }

let zero = of_int 0
let one = of_int 1

let[@inline] num a =
  if is_immediate a then unsafe_int a else (unsafe_frac a).f_num

let[@inline] den a = if is_immediate a then 1 else (unsafe_frac a).f_den

(* Euclid directly on the signed inputs: truncated [mod] keeps every
   intermediate in range (|r| < |b|), so the only way the result can be
   [min_int] is when both inputs are, which every caller dispatches
   first.  The magnitude of the result is gcd(|a|, |b|). *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let gcd_mag a b =
  let g = gcd a b in
  if g = min_int then raise Overflow else if g < 0 then -g else g

(* Checked machine arithmetic: raise {!Overflow} instead of wrapping.
   [-min_int], [min_int * -1] and friends are all caught — a wrapped
   rational would silently violate every bound downstream. *)
let[@inline] checked_neg n = if n = min_int then raise Overflow else -n

let checked_mul a b =
  if a = 0 || b = 0 then 0
  else if (a = min_int && b = -1) || (a = -1 && b = min_int) then
    raise Overflow
  else
    let r = a * b in
    if r / a <> b then raise Overflow else r

let checked_add a b =
  let r = a + b in
  if a >= 0 = (b >= 0) && r >= 0 <> (a >= 0) then raise Overflow else r

let checked_sub a b =
  let r = a - b in
  if a >= 0 <> (b >= 0) && r >= 0 <> (a >= 0) then raise Overflow else r

(* All four operands of magnitude below 2^30: cross products stay
   below 2^60 and their sums below 2^61, so plain machine arithmetic
   cannot wrap and the division-based overflow checks above are pure
   cost.  [n lxor (n asr 63)] is |n| for n >= 0 and |n| - 1 otherwise,
   so one combined test bounds all four magnitudes.  Simulation
   timestamps and delays are tiny fractions and the event heap
   compares them O(log n) times per event, so this is the hot path. *)
let[@inline] small4 a b c d =
  (a lxor (a asr 63))
  lor (b lxor (b asr 63))
  lor (c lxor (c asr 63))
  lor (d lxor (d asr 63))
  < 0x4000_0000

let make num den =
  if den = 0 then raise Division_by_zero
  else if den = 1 then of_int num
  else if num = 0 then zero
  else if den = -1 then of_int (checked_neg num)
  else if num = min_int && den = min_int then one
  else begin
    let g = gcd_mag num den in
    let num = num / g and den = den / g in
    if den = 1 then of_int num
    else if den = -1 then of_int (checked_neg num)
    else if den < 0 then
      (* A numerator or denominator of magnitude 2^62 survived the
         reduction; the normalized (positive-denominator) form needs
         -min_int, which does not exist. *)
      if num = min_int || den = min_int then raise Overflow
      else frac (-num) (-den)
    else frac num den
  end

(* ------------------------------------------------------------------ *)
(* Arithmetic: immediate x immediate stays on machine ints; any       *)
(* fraction (or an int overflow that genuinely leaves the range)      *)
(* takes the exact gcd-reduced cross-multiplication path.             *)

let add a b =
  if is_immediate a && is_immediate b then
    of_int (checked_add (unsafe_int a) (unsafe_int b))
  else
    (* a/b + c/d over the reduced common denominator lcm(b, d). *)
    let na = num a and da = den a and nb = num b and db = den b in
    if small4 na da nb db then
      let g = gcd da db in
      let bd = db / g in
      make ((na * bd) + (nb * (da / g))) (da * bd)
    else
      let g = gcd_mag da db in
      let bd = db / g in
      make
        (checked_add (checked_mul na bd) (checked_mul nb (da / g)))
        (checked_mul da bd)

let sub a b =
  if is_immediate a && is_immediate b then
    of_int (checked_sub (unsafe_int a) (unsafe_int b))
  else
    let na = num a and da = den a and nb = num b and db = den b in
    if small4 na da nb db then
      let g = gcd da db in
      let bd = db / g in
      make ((na * bd) - (nb * (da / g))) (da * bd)
    else
      let g = gcd_mag da db in
      let bd = db / g in
      make
        (checked_sub (checked_mul na bd) (checked_mul nb (da / g)))
        (checked_mul da bd)

(* Reduce before multiplying: a/b * c/d with g1 = gcd(a, d) and
   g2 = gcd(c, b) keeps the intermediates as small as the final
   normalized result, so [Overflow] fires only when the result itself
   cannot be represented.  Denominators are >= 1, so neither gcd can
   reach 2^62. *)
let mul a b =
  if is_immediate a && is_immediate b then
    of_int (checked_mul (unsafe_int a) (unsafe_int b))
  else
    let na = num a and da = den a and nb = num b and db = den b in
    if small4 na da nb db then make (na * nb) (da * db)
    else
      let g1 = gcd_mag na db and g2 = gcd_mag nb da in
      make (checked_mul (na / g1) (nb / g2)) (checked_mul (da / g2) (db / g1))

let is_zero a = is_immediate a && unsafe_int a = 0

let div a b =
  let nb = num b in
  if nb = 0 then raise Division_by_zero
  else if is_immediate a && is_immediate b then make (unsafe_int a) nb
  else
    let na = num a in
    if na = 0 then zero
    else
      let da = den a and db = den b in
      if small4 na da nb db then make (na * db) (da * nb)
      else
      (* gcd(|min_int|, |min_int|) = 2^62 is not representable; the
         reduced pair is known directly. *)
      let na, nb =
        if na = min_int && nb = min_int then (-1, -1)
        else
          let g = gcd_mag na nb in
          (na / g, nb / g)
      in
      let g2 = gcd_mag db da in
      make (checked_mul na (db / g2)) (checked_mul (da / g2) nb)

let neg a =
  if is_immediate a then of_int (checked_neg (unsafe_int a))
  else
    let f = unsafe_frac a in
    frac (checked_neg f.f_num) f.f_den

let abs a =
  if is_immediate a then
    let n = unsafe_int a in
    if n >= 0 then a else of_int (checked_neg n)
  else
    let f = unsafe_frac a in
    if f.f_num >= 0 then a else frac (checked_neg f.f_num) f.f_den

let mul_int a k =
  if is_immediate a then of_int (checked_mul (unsafe_int a) k)
  else
    let f = unsafe_frac a in
    let g = gcd_mag k f.f_den in
    make (checked_mul f.f_num (k / g)) (f.f_den / g)

let div_int a k =
  if k = 0 then raise Division_by_zero
  else if is_immediate a then make (unsafe_int a) k
  else
    let f = unsafe_frac a in
    let n, k =
      if f.f_num = min_int && k = min_int then (-1, -1)
      else
        let g = gcd_mag f.f_num k in
        (f.f_num / g, k / g)
    in
    make n (checked_mul f.f_den k)

(* ------------------------------------------------------------------ *)
(* Comparison.                                                        *)

(* Exact comparison of n1/d1 vs n2/d2 (signed numerators, positive
   denominators), overflow-free: compare floor quotients, then recurse
   on the flipped remainders (continued-fraction descent; after the
   first level all operands are positive and strictly shrink).  Floor
   division is computed as truncation plus a remainder fix-up so that
   [min_int] numerators never need negating. *)
let rec cmp_exact n1 d1 n2 d2 =
  let q1 = n1 / d1 and m1 = n1 mod d1 in
  let q1, r1 = if m1 < 0 then (q1 - 1, m1 + d1) else (q1, m1) in
  let q2 = n2 / d2 and m2 = n2 mod d2 in
  let q2, r2 = if m2 < 0 then (q2 - 1, m2 + d2) else (q2, m2) in
  if q1 <> q2 then Int.compare q1 q2
  else if r1 = 0 && r2 = 0 then 0
  else if r1 = 0 then -1
  else if r2 = 0 then 1
  else cmp_exact d2 r2 d1 r1

(* Cross-multiplication keeps comparison exact; denominators are
   positive.  When the cross products would overflow, fall back to the
   exact continued-fraction descent instead of comparing wrapped
   integers. *)
let compare a b =
  if is_immediate a && is_immediate b then
    Int.compare (unsafe_int a) (unsafe_int b)
  else
    let na = num a and da = den a and nb = num b and db = den b in
    if small4 na da nb db then Int.compare (na * db) (nb * da)
    else (
      match Int.compare (checked_mul na db) (checked_mul nb da) with
      | c -> c
      | exception Overflow -> cmp_exact na da nb db)

let equal a b = compare a b = 0
let lt a b = compare a b < 0
let le a b = compare a b <= 0
let gt a b = compare a b > 0
let ge a b = compare a b >= 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b
let sign a = Int.compare (num a) 0

let clamp ~lo ~hi x =
  if gt lo hi then invalid_arg "Rat.clamp: lo > hi"
  else min hi (max lo x)

let in_range ~lo ~hi x = le lo x && le x hi
let sum l = List.fold_left add zero l

let min_list = function
  | [] -> invalid_arg "Rat.min_list: empty list"
  | x :: rest -> List.fold_left min x rest

let max_list = function
  | [] -> invalid_arg "Rat.max_list: empty list"
  | x :: rest -> List.fold_left max x rest

let to_float a =
  if is_immediate a then float_of_int (unsafe_int a)
  else
    let f = unsafe_frac a in
    float_of_int f.f_num /. float_of_int f.f_den

(* The one digit writer: integers and rationals go into a buffer digit
   by digit, as [string_of_int] renders them, with no string of their
   own.  [add_digits] writes the digits of [n <= 0]'s magnitude, so
   [min_int] needs no case. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int b n =
  if n < 0 then Buffer.add_char b '-';
  add_digits b (if n < 0 then n else -n)

let add_to_buffer b a =
  add_int b (num a);
  if den a <> 1 then begin
    Buffer.add_char b '/';
    add_int b (den a)
  end

let to_string a =
  if is_immediate a then string_of_int (unsafe_int a)
  else begin
    let b = Buffer.create 16 in
    add_to_buffer b a;
    Buffer.contents b
  end

let pp ppf a = Format.pp_print_string ppf (to_string a)
let hash a = (num a * 31) lxor den a

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) = lt
  let ( <= ) = le
  let ( > ) = gt
  let ( >= ) = ge
end
