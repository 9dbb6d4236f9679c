(** Latency measurement over completed operations.

    The paper's complexity measure [|OP|] is the supremum of
    response-minus-invocation time over all admissible runs.  For the
    paper's algorithm the latency of an operation is timer-determined
    (a constant per class), so the maximum over any run equals the true
    bound; for the baselines, adversarial delay schedules realize the
    worst case. *)

type summary = { count : int; min : Rat.t; max : Rat.t; mean : Rat.t }

let latency (op : ('inv, 'resp) Sim.Trace.operation) =
  Rat.sub op.resp_time op.inv_time

(* A sample counted in quanta of [1/q], in time units. *)
let div_quanta x q = if q = 1 then x else Rat.div_int x q

(* Streaming accumulator: O(1) state per stream, exact rational mean. *)
module Acc = struct
  type t = {
    mutable count : int;
    mutable min : Rat.t;
    mutable max : Rat.t;
    mutable sum : Rat.t;
  }

  let create () =
    { count = 0; min = Rat.zero; max = Rat.zero; sum = Rat.zero }

  let add acc x =
    if acc.count = 0 then begin
      acc.min <- x;
      acc.max <- x;
      acc.sum <- x;
      acc.count <- 1
    end
    else begin
      acc.min <- Rat.min acc.min x;
      acc.max <- Rat.max acc.max x;
      acc.sum <- Rat.add acc.sum x;
      acc.count <- acc.count + 1
    end

  (* The summary of a non-empty accumulator whose samples count quanta
     of [1/quantum], in time units. *)
  let summarize ~quantum acc =
    (* equal extremes share one rational, as they shared one sample *)
    let min = div_quanta acc.min quantum in
    {
      count = acc.count;
      min;
      max =
        (if Rat.equal acc.max acc.min then min
         else div_quanta acc.max quantum);
      mean = Rat.div_int acc.sum (acc.count * quantum);
    }

  let summary acc =
    if acc.count = 0 then None else Some (summarize ~quantum:1 acc)

  (* Fold a finished summary into the accumulator.  The summary's sum
     is recovered exactly as [mean * count] (rationals), so absorbing
     is associative and commutative: folding a campaign's summaries
     yields the same totals in any order. *)
  let absorb acc (s : summary) =
    if s.count > 0 then begin
      let sum = Rat.mul_int s.mean s.count in
      if acc.count = 0 then begin
        acc.min <- s.min;
        acc.max <- s.max;
        acc.sum <- sum;
        acc.count <- s.count
      end
      else begin
        acc.min <- Rat.min acc.min s.min;
        acc.max <- Rat.max acc.max s.max;
        acc.sum <- Rat.add acc.sum sum;
        acc.count <- acc.count + s.count
      end
    end
end

(* Keyed streaming accumulators, preserving first-seen key order: the
   keys and their accumulators in two arrays, in the order they were
   first seen.  A run has a handful of keys (its operation names, or
   the three classes), so a lookup is a short scan, and the arrays
   start at three slots and double when full. *)
module Grouped = struct
  type 'k t = {
    mutable keys : 'k array;
    mutable accs : Acc.t array;
    mutable len : int;
  }

  let create () = { keys = [||]; accs = [||]; len = 0 }

  (* [k]'s accumulator, created on first sight, scanning from slot
     [i].  A hit allocates nothing. *)
  let rec find g k i =
    if i = g.len then begin
      let acc = Acc.create () in
      if i = Array.length g.keys then begin
        let cap = Stdlib.max 3 (2 * i) in
        let keys = Array.make cap k and accs = Array.make cap acc in
        Array.blit g.keys 0 keys 0 i;
        Array.blit g.accs 0 accs 0 i;
        g.keys <- keys;
        g.accs <- accs
      end;
      g.keys.(i) <- k;
      g.accs.(i) <- acc;
      g.len <- i + 1;
      acc
    end
    else
      let key = g.keys.(i) in
      if key == k || key = k then g.accs.(i) else find g k (i + 1)

  let acc g k = find g k 0

  let add g k x = Acc.add (acc g k) x

  let summaries ?(quantum = 1) g =
    let l = ref [] in
    for i = g.len - 1 downto 0 do
      l := (g.keys.(i), Acc.summarize ~quantum g.accs.(i)) :: !l
    done;
    !l

  let absorb g k (s : summary) = Acc.absorb (acc g k) s
end

(* Streaming log-bucketed latency histogram.  Values land in
   geometrically sized buckets (16 per octave, ~4.4% relative width).
   Bucket 0, where zero latencies land, is a plain count, and only the
   window of buckets between the smallest and the largest other one
   seen is stored: nothing before the first sample, typically a few
   dozen ints after, however many million samples stream through — and
   an instant operation next to slow ones does not stretch the window
   over the two hundred buckets between them.
   Merging two histograms is bucket-wise integer addition —
   commutative and associative, so a merged campaign histogram does
   not depend on the order of its parts; the window is a function of
   the samples alone, so equal contents are equal values.  Count, min,
   max and sum stay exact rationals; only quantiles are bucket
   approximations. *)
module Hist = struct
  type t = {
    mutable quantum : int;  (** samples are in units of [1/quantum] *)
    mutable zeros : int;  (** samples in bucket 0, kept out of the window *)
    mutable first : int;  (** bucket index of [buckets.(0)], at least 1 *)
    mutable buckets : int array;
        (** empty until the first sample above bucket 0 *)
    mutable count : int;
    mutable min : Rat.t;
    mutable max : Rat.t;
    mutable sum : Rat.t;
  }

  type quantiles = { p50 : float; p99 : float; p999 : float }

  (* Bucket 0 holds values <= lo (including zero latencies); bucket i
     (i >= 1) holds values in (lo*g^(i-1), lo*g^i] with g = 2^(1/16).
     lo = 1/1024 matches the workload generator's time quantum. *)
  let lo = 1.0 /. 1024.0
  let log_g = log 2.0 /. 16.0

  let create ?(quantum = 1) () =
    if quantum < 1 then invalid_arg "Metrics.Hist.create: quantum < 1";
    {
      quantum;
      zeros = 0;
      first = 0;
      buckets = [||];
      count = 0;
      min = Rat.zero;
      max = Rat.zero;
      sum = Rat.zero;
    }

  (* A sample in time units, as a float.  An integer sample below 2^53
     converts exactly, so dividing it by the quantum rounds the same
     rational [Rat.to_float] rounds once: the bucket is the one the
     sample divided by the quantum lands in.  Inlined, so that a float
     computed from an integer sample stays in the caller's local. *)
  let[@inline] to_units_float t v =
    if t.quantum = 1 then Rat.to_float v
    else if Rat.den v = 1 && Int.abs (Rat.num v) < 1 lsl 53 then
      float_of_int (Rat.num v) /. float_of_int t.quantum
    else Rat.to_float (Rat.div_int v t.quantum)

  let in_units t v = div_quanta v t.quantum

  let bucket_of t v =
    let f = to_units_float t v in
    if f <= lo then 0
    else 1 + int_of_float (Float.floor (log (f /. lo) /. log_g))

  (* Upper edge of bucket [i]: the conservative representative for
     tail quantiles. *)
  let edge_of i = if i = 0 then 0.0 else lo *. exp (float_of_int i *. log_g)

  (* Widen the window to cover buckets [a, b], exactly. *)
  let cover t a b =
    let n = Array.length t.buckets in
    if n = 0 then begin
      t.first <- a;
      t.buckets <- Array.make (b - a + 1) 0
    end
    else if a < t.first || b >= t.first + n then begin
      let first = Stdlib.min a t.first in
      let last = Stdlib.max b (t.first + n - 1) in
      let w = Array.make (last - first + 1) 0 in
      Array.blit t.buckets 0 w (t.first - first) n;
      t.first <- first;
      t.buckets <- w
    end

  (* Count one more sample in bucket [i]. *)
  let bump t i =
    if i = 0 then t.zeros <- t.zeros + 1
    else begin
      cover t i i;
      t.buckets.(i - t.first) <- t.buckets.(i - t.first) + 1
    end

  let add t x =
    bump t (bucket_of t x);
    if t.count = 0 then begin
      t.min <- x;
      t.max <- x;
      t.sum <- x
    end
    else begin
      t.min <- Rat.min t.min x;
      t.max <- Rat.max t.max x;
      t.sum <- Rat.add t.sum x
    end;
    t.count <- t.count + 1

  let count t = t.count

  let settle t =
    if t.quantum > 1 then begin
      let min = in_units t t.min in
      t.max <- (if Rat.equal t.max t.min then min else in_units t t.max);
      t.min <- min;
      t.sum <- in_units t t.sum;
      t.quantum <- 1
    end

  let merge t other =
    if other.count > 0 then begin
      settle t;
      let in_units = in_units other in
      t.zeros <- t.zeros + other.zeros;
      if Array.length other.buckets > 0 then begin
        cover t other.first (other.first + Array.length other.buckets - 1);
        Array.iteri
          (fun i c ->
            let j = other.first + i - t.first in
            t.buckets.(j) <- t.buckets.(j) + c)
          other.buckets
      end;
      if t.count = 0 then begin
        t.min <- in_units other.min;
        t.max <- in_units other.max;
        t.sum <- in_units other.sum
      end
      else begin
        t.min <- Rat.min t.min (in_units other.min);
        t.max <- Rat.max t.max (in_units other.max);
        t.sum <- Rat.add t.sum (in_units other.sum)
      end;
      t.count <- t.count + other.count
    end

  let summary t =
    if t.count = 0 then None
    else
      Some
        {
          count = t.count;
          min = in_units t t.min;
          max = in_units t t.max;
          mean = Rat.div_int (in_units t t.sum) t.count;
        }

  let quantile t q =
    if t.count = 0 then nan
    else begin
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
      in
      let cum = ref t.zeros and i = ref 0 in
      let found = ref (if t.zeros >= rank then 0 else -1) in
      let n = Array.length t.buckets in
      while !found < 0 && !i < n do
        cum := !cum + t.buckets.(!i);
        if !cum >= rank then found := t.first + !i;
        incr i
      done;
      let est = edge_of (Stdlib.max 0 !found) in
      (* The bucket edge over-estimates by at most one bucket width;
         clamping into the exact observed range makes degenerate
         distributions (all-equal samples) report exact quantiles. *)
      Float.min (Float.max est (to_units_float t t.min)) (to_units_float t t.max)
    end

  let quantiles t =
    if t.count = 0 then None
    else
      Some
        { p50 = quantile t 0.5; p99 = quantile t 0.99; p999 = quantile t 0.999 }

  let pp_quantiles ppf { p50; p99; p999 } =
    Format.fprintf ppf "p50=%.6g p99=%.6g p999=%.6g" p50 p99 p999

  let json_of_quantiles { p50; p99; p999 } =
    Json.Object [ ("p50", Sig p50); ("p99", Sig p99); ("p999", Sig p999) ]

  let pp ppf t =
    match quantiles t with
    | None -> Format.fprintf ppf "empty"
    | Some q -> Format.fprintf ppf "%a (n=%d)" pp_quantiles q t.count
end

let summarize = function
  | [] -> None
  | latencies ->
      let acc = Acc.create () in
      List.iter (Acc.add acc) latencies;
      Acc.summary acc

(* Group latencies by an operation-derived key, preserving first-seen
   key order. *)
let group_by ~key ops =
  let g = Grouped.create () in
  List.iter (fun op -> Grouped.add g (key op) (latency op)) ops;
  Grouped.summaries g

let by_op ~op_of ops = group_by ~key:(fun op -> op_of op.Sim.Trace.inv) ops

let by_kind ~kind_of ops = group_by ~key:(fun op -> kind_of op.Sim.Trace.inv) ops

let max_latency ops =
  match ops with
  | [] -> None
  | _ -> Some (Rat.max_list (List.map latency ops))

let pp_summary ppf s =
  Format.fprintf ppf "n=%d min=%a max=%a mean=%a" s.count Rat.pp s.min Rat.pp
    s.max Rat.pp s.mean

let json_of_summary s =
  let rat r = Json.String (Rat.to_string r) in
  Json.Object
    [ ("count", Int s.count); ("min", rat s.min); ("max", rat s.max);
      ("mean", rat s.mean) ]
