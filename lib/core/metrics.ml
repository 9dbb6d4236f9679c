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

  let count acc = acc.count

  let summary acc =
    if acc.count = 0 then None
    else
      Some
        {
          count = acc.count;
          min = acc.min;
          max = acc.max;
          mean = Rat.div_int acc.sum acc.count;
        }

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

  let merge acc other =
    match summary other with None -> () | Some s -> absorb acc s
end

(* Keyed streaming accumulators, preserving first-seen key order. *)
module Grouped = struct
  type 'k t = {
    table : ('k, Acc.t) Hashtbl.t;
    mutable rev_order : 'k list;
  }

  let create () = { table = Hashtbl.create 8; rev_order = [] }

  let add g k x =
    let acc =
      match Hashtbl.find_opt g.table k with
      | Some acc -> acc
      | None ->
          let acc = Acc.create () in
          Hashtbl.add g.table k acc;
          g.rev_order <- k :: g.rev_order;
          acc
    in
    Acc.add acc x

  let summaries g =
    List.rev_map
      (fun k -> (k, Option.get (Acc.summary (Hashtbl.find g.table k))))
      g.rev_order

  let absorb g k (s : summary) =
    let acc =
      match Hashtbl.find_opt g.table k with
      | Some acc -> acc
      | None ->
          let acc = Acc.create () in
          Hashtbl.add g.table k acc;
          g.rev_order <- k :: g.rev_order;
          acc
    in
    Acc.absorb acc s

  let merge g other = List.iter (fun (k, s) -> absorb g k s) (summaries other)
end

(* Streaming log-bucketed latency histogram.  Values land in
   geometrically sized buckets (16 per octave, ~4.4% relative width), so
   state is a few hundred ints regardless of how many million samples
   stream through, and merging two histograms is bucket-wise integer
   addition — commutative and associative, so a merged campaign
   histogram does not depend on the order of its parts.  Count, min,
   max and sum stay exact rationals; only quantiles are bucket
   approximations. *)
module Hist = struct
  type t = {
    mutable buckets : int array;
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

  let create () =
    {
      buckets = Array.make 64 0;
      count = 0;
      min = Rat.zero;
      max = Rat.zero;
      sum = Rat.zero;
    }

  let bucket_of v =
    let f = Rat.to_float v in
    if f <= lo then 0
    else 1 + int_of_float (Float.floor (log (f /. lo) /. log_g))

  (* Upper edge of bucket [i]: the conservative representative for
     tail quantiles. *)
  let edge_of i = if i = 0 then 0.0 else lo *. exp (float_of_int i *. log_g)

  let ensure t i =
    let n = Array.length t.buckets in
    if i >= n then begin
      let n' = Stdlib.max (i + 1) (2 * n) in
      let b = Array.make n' 0 in
      Array.blit t.buckets 0 b 0 n;
      t.buckets <- b
    end

  let add t x =
    let i = bucket_of x in
    ensure t i;
    t.buckets.(i) <- t.buckets.(i) + 1;
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

  let merge t other =
    if other.count > 0 then begin
      ensure t (Array.length other.buckets - 1);
      Array.iteri
        (fun i c -> if c > 0 then t.buckets.(i) <- t.buckets.(i) + c)
        other.buckets;
      if t.count = 0 then begin
        t.min <- other.min;
        t.max <- other.max;
        t.sum <- other.sum
      end
      else begin
        t.min <- Rat.min t.min other.min;
        t.max <- Rat.max t.max other.max;
        t.sum <- Rat.add t.sum other.sum
      end;
      t.count <- t.count + other.count
    end

  let summary t =
    if t.count = 0 then None
    else
      Some
        {
          count = t.count;
          min = t.min;
          max = t.max;
          mean = Rat.div_int t.sum t.count;
        }

  let quantile t q =
    if t.count = 0 then nan
    else begin
      let rank =
        Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
      in
      let cum = ref 0 and i = ref 0 and found = ref (-1) in
      let n = Array.length t.buckets in
      while !found < 0 && !i < n do
        cum := !cum + t.buckets.(!i);
        if !cum >= rank then found := !i;
        incr i
      done;
      let est = edge_of (Stdlib.max 0 !found) in
      (* The bucket edge over-estimates by at most one bucket width;
         clamping into the exact observed range makes degenerate
         distributions (all-equal samples) report exact quantiles. *)
      Float.min (Float.max est (Rat.to_float t.min)) (Rat.to_float t.max)
    end

  let quantiles t =
    if t.count = 0 then None
    else
      Some
        { p50 = quantile t 0.5; p99 = quantile t 0.99; p999 = quantile t 0.999 }

  let pp_quantiles ppf { p50; p99; p999 } =
    Format.fprintf ppf "p50=%.6g p99=%.6g p999=%.6g" p50 p99 p999

  let pp_json_quantiles ppf { p50; p99; p999 } =
    Format.fprintf ppf "{\"p50\":%.6g,\"p99\":%.6g,\"p999\":%.6g}" p50 p99
      p999

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

let pp_json_summary ppf s =
  Format.fprintf ppf
    "{\"count\":%d,\"min\":\"%s\",\"max\":\"%s\",\"mean\":\"%s\"}" s.count
    (Rat.to_string s.min) (Rat.to_string s.max) (Rat.to_string s.mean)
