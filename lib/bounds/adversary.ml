(** The adversarial constructions from the proofs of Theorems 2-5,
    as executable artifacts.

    Each submodule builds the proof's delay matrices and shift vectors
    as functions of the model, and exposes [claims]: the quantitative
    statements the proof makes (individual delay values, skew maxima,
    validity of matrices, chop-point inequalities), each machine-checked
    with exact rational arithmetic.  The test suite asserts that every
    claim holds for a spread of model parameters; the bench prints the
    matrices, regenerating Figures 2 and 4-10.

    Sign convention: {!Shifting} implements Theorem 1 verbatim
    ([x_i > 0] moves [p_i] later).  The §4 proofs' prose sometimes
    describes shifts in the opposite sense; each construction below
    picks the vector that reproduces the delay values stated in the
    paper, and says so in a comment. *)

type claim = { label : string; holds : bool }

let claim label holds = { label; holds }
let all_hold claims = List.for_all (fun c -> c.holds) claims
let failing claims = List.filter (fun c -> not c.holds) claims

let pp_claim ppf c =
  Format.fprintf ppf "[%s] %s" (if c.holds then "ok" else "FAIL") c.label

(* Algebraic modulo: always in [0, k). *)
let ( %% ) a k = ((a mod k) + k) mod k

(** Theorem 2 (pure accessor lower bound u/4): base run has uniform
    delays [d - u/2]; case 1 shifts [(u/4, -u/4, 0, ...)], case 2 the
    opposite.  The proof's displayed post-shift delays are checked
    entry by entry. *)
module Thm2 = struct
  let base_matrix (model : Sim.Model.t) =
    let half_u = Rat.div_int model.u 2 in
    Sim.Net.uniform_matrix ~n:model.n (Rat.sub model.d half_u)

  let shift_vector (model : Sim.Model.t) ~case =
    let q = Rat.div_int model.u 4 in
    Array.init model.n (fun i ->
        match (case, i) with
        | `Even, 0 -> q
        | `Even, 1 -> Rat.neg q
        | `Odd, 0 -> Rat.neg q
        | `Odd, 1 -> q
        | _ -> Rat.zero)

  let claims (model : Sim.Model.t) =
    if model.n < 3 then invalid_arg "Thm2.claims: needs n >= 3";
    let d = model.d and u = model.u in
    let quarter k = Rat.sub d (Rat.mul u (Rat.make k 4)) in
    let base = base_matrix model in
    let x = shift_vector model ~case:`Even in
    let shifted = Shifting.shift_matrix base x in
    let expect label i j value = claim label (Rat.equal shifted.(i).(j) value) in
    [
      claim "base delays d-u/2 are valid" (Sim.Net.matrix_valid model base);
      expect "d'_01 = d - u" 0 1 (Rat.sub d u);
      expect "d'_10 = d" 1 0 d;
      expect "d'_02 = d - 3u/4" 0 2 (quarter 3);
      expect "d'_20 = d - u/4" 2 0 (quarter 1);
      expect "d'_12 = d - u/4" 1 2 (quarter 1);
      expect "d'_21 = d - 3u/4" 2 1 (quarter 3);
      claim "shifted delays all valid" (Sim.Net.matrix_valid model shifted);
      claim "max skew after shift is u/2"
        (Rat.equal
           (Sim.Model.max_skew (Shifting.shifted_offsets (Array.make model.n Rat.zero) x))
           (Rat.div_int u 2));
      claim "skew u/2 within eps (since eps >= (1-1/n)u >= 2u/3 for n>=3)"
        ((not (Rat.ge model.eps (Sim.Model.optimal_eps model)))
        || Sim.Model.skew_valid model
             (Shifting.shifted_offsets (Array.make model.n Rat.zero) x));
      (let x_odd = shift_vector model ~case:`Odd in
       claim "case 2 shift also keeps delays valid"
         (Sim.Net.matrix_valid model (Shifting.shift_matrix base x_odd)));
    ]
end

(** Theorem 3 (last-sensitive mutator lower bound (1-1/k)u): the base
    delay matrix is [d_ij = d - ((i-j) mod k)/k * u] among the first
    [k] processes; the shift moves [p_i] by
    [(-(k-1)/(2k) + ((z-i) mod k)/k) * u], where [p_z] executed the
    instance that the algorithm linearized last. *)
module Thm3 = struct
  let base_matrix (model : Sim.Model.t) ~k =
    if k < 2 || k > model.n then invalid_arg "Thm3.base_matrix: bad k";
    Array.init model.n (fun i ->
        Array.init model.n (fun j ->
            if i = j then Rat.zero
            else if i < k && j < k then
              Rat.sub model.d (Rat.mul model.u (Rat.make ((i - j) %% k) k))
            else Rat.sub model.d (Rat.div_int model.u 2)))

  let shift_vector (model : Sim.Model.t) ~k ~z =
    if z < 0 || z >= k then invalid_arg "Thm3.shift_vector: bad z";
    Array.init model.n (fun i ->
        if i < k then
          Rat.mul model.u
            (Rat.add (Rat.make (-(k - 1)) (2 * k)) (Rat.make ((z - i) %% k) k))
        else Rat.zero)

  (* The real-time gap the proof relies on: after the shift, p_z's
     instance ends before p_{(z+1) mod k}'s begins, provided
     |OP| < (1 - 1/k) u.  The gap between their shift amounts is
     exactly (1 - 1/k) u. *)
  let separation_gap (model : Sim.Model.t) ~k ~z =
    let x = shift_vector model ~k ~z in
    Rat.sub x.((z + 1) %% k) x.(z)

  let claims_for_z (model : Sim.Model.t) ~k ~z =
    let base = base_matrix model ~k in
    let x = shift_vector model ~k ~z in
    let shifted = Shifting.shift_matrix base x in
    let offsets = Shifting.shifted_offsets (Array.make model.n Rat.zero) x in
    let tag label = Printf.sprintf "k=%d z=%d: %s" k z label in
    [
      claim (tag "base matrix valid") (Sim.Net.matrix_valid model base);
      claim
        (tag "Claim 2: every |x_i| <= u/2")
        (Array.for_all
           (fun xi -> Rat.le (Rat.abs xi) (Rat.div_int model.u 2))
           x);
      claim
        (tag "Claim 3: max skew after shift = (1-1/k)u")
        (Rat.equal (Sim.Model.max_skew offsets)
           (Rat.mul model.u (Rat.make (k - 1) k)));
      claim
        (tag "Claim 3: skew within eps (when eps >= (1-1/n)u and k <= n)")
        ((not (Rat.ge model.eps (Sim.Model.optimal_eps model)))
        || Sim.Model.skew_valid model offsets);
      claim
        (tag "Claim 3: all shifted delays within [d-u, d]")
        (Sim.Net.matrix_valid model shifted);
      claim
        (tag "step 3: shift gap x_{z+1} - x_z = (1-1/k)u")
        (Rat.equal (separation_gap model ~k ~z)
           (Rat.mul model.u (Rat.make (k - 1) k)));
      (* The proof's six-case analysis collapses to: among the first k
         processes every shifted delay is exactly d or exactly d - u
         (the bracket f(i-j) + f(z-i) - f(z-j) is 0 or 1 because the
         arguments sum compatibly mod k). *)
      claim
        (tag "six cases: each shifted delay is exactly d or d-u")
        (let ok = ref true in
         for i = 0 to k - 1 do
           for j = 0 to k - 1 do
             if i <> j then
               let v = shifted.(i).(j) in
               if
                 not
                   (Rat.equal v model.d
                   || Rat.equal v (Rat.sub model.d model.u))
               then ok := false
           done
         done;
         !ok);
      claim
        (tag "displayed case i < j <= z: delay is exactly d-u")
        (let ok = ref true in
         for i = 0 to k - 1 do
           for j = 0 to k - 1 do
             if i < j && j <= z && not (Rat.equal shifted.(i).(j) (Rat.sub model.d model.u))
             then ok := false
           done
         done;
         !ok);
    ]

  let claims (model : Sim.Model.t) ~k =
    List.concat (List.init k (fun z -> claims_for_z model ~k ~z))
end

(** Theorem 4 (pair-free lower bound d + m, m = min{eps, u, d/3}).

    Run R1/R2 use the matrix D1 of Figure 2.  Step 3 shifts p1
    {e earlier} by m (vector (0, -m, 0, ...)), making the p1->p0 delay
    d + m — the single invalid entry — which is chopped with
    delta = d - m and repaired to d - m (Figure 5).  Step 5 shifts p0
    {e later} by m (vector (m, 0, ...)), making the p0->p1 delay
    d - 2m — invalid whenever 2m > u — chopped and repaired to d
    (Figure 7). *)
module Thm4 = struct
  let m (model : Sim.Model.t) = Theorems.slack_m model

  (* Figure 2. *)
  let d1_matrix (model : Sim.Model.t) =
    let dm = Rat.sub model.d (m model) in
    Array.init model.n (fun i ->
        Array.init model.n (fun j ->
            if i = j then Rat.zero
            else if i <> 1 && j = 0 then dm
            else if i = 1 && j <> 0 then dm
            else model.d))

  let step3_shift (model : Sim.Model.t) =
    Array.init model.n (fun i -> if i = 1 then Rat.neg (m model) else Rat.zero)

  let step5_shift (model : Sim.Model.t) =
    Array.init model.n (fun i -> if i = 0 then m model else Rat.zero)

  let repair matrix (i, j) value =
    let copy = Array.map Array.copy matrix in
    copy.(i).(j) <- value;
    copy

  (* The matrices of Figures 2, 4, 5, 6 and 7, in order. *)
  let matrices (model : Sim.Model.t) =
    let mm = m model in
    let fig2 = d1_matrix model in
    let fig4 = Shifting.shift_matrix fig2 (step3_shift model) in
    let fig5 = repair fig4 (1, 0) (Rat.sub model.d mm) in
    let fig6 = Shifting.shift_matrix fig5 (step5_shift model) in
    let fig7 = repair fig6 (0, 1) model.d in
    [
      ("Figure 2: D1 (run R1)", fig2);
      ("Figure 4: after shifting p1 earlier by m (run S2')", fig4);
      ("Figure 5: after repairing p1->p0 to d-m (run R3)", fig5);
      ("Figure 6: after shifting p0 later by m (run S3')", fig6);
      ("Figure 7: after repairing p0->p1 to d (run R4)", fig7);
    ]

  let claims (model : Sim.Model.t) =
    if model.n < 2 then invalid_arg "Thm4.claims: needs n >= 2";
    let d = model.d in
    let mm = m model in
    let fig2 = d1_matrix model in
    let fig4 = Shifting.shift_matrix fig2 (step3_shift model) in
    let fig5 = repair fig4 (1, 0) (Rat.sub d mm) in
    let fig6 = Shifting.shift_matrix fig5 (step5_shift model) in
    let fig7 = repair fig6 (0, 1) d in
    let t = Rat.zero (* invocation time reference *) in
    let chop3 =
      Chop.chop_times ~matrix:fig4 ~invalid:(1, 0) ~t_m:t
        ~delta:(Rat.sub d mm)
    in
    let chop5 =
      Chop.chop_times ~matrix:fig6 ~invalid:(0, 1) ~t_m:(Rat.add t mm)
        ~delta:(Rat.sub d mm)
    in
    [
      claim "m <= eps, m <= u, m <= d/3"
        (Rat.le mm model.eps && Rat.le mm model.u
        && Rat.le mm (Rat.div_int d 3));
      claim "D1 (Figure 2) is valid" (Sim.Net.matrix_valid model fig2);
      claim "step 3: p1->p0 becomes d + m (the unique invalid delay)"
        (Rat.equal fig4.(1).(0) (Rat.add d mm)
        &&
        (* With m = 0 (degenerate u = 0 or eps = 0) the shift is
           trivial and no delay turns invalid. *)
        Shifting.invalid_entries model fig4
        = (if Rat.is_zero mm then [] else [ (1, 0) ]));
      claim "step 3: messages received by p1 now have delay d - m"
        (Array.for_all Fun.id
           (Array.init model.n (fun i ->
                i = 1 || Rat.equal fig4.(i).(1) (Rat.sub d mm))));
      claim "step 3 chop: p0 cut at t_m + (d - m)"
        (Rat.equal chop3.(0) (Rat.add t (Rat.sub d mm)));
      claim "step 3 chop: p1 cut >= t + d + m (uses m <= d/3)"
        (Rat.ge chop3.(1) (Rat.add t (Rat.add d mm)));
      claim "step 4 repair yields a valid matrix (Figure 5)"
        (Sim.Net.matrix_valid model fig5);
      claim "step 5: p0->p1 becomes d - 2m; invalid iff 2m > u"
        (Rat.equal fig6.(0).(1) (Rat.sub d (Rat.mul_int mm 2))
        &&
        let invalid = Shifting.invalid_entries model fig6 in
        if Rat.gt (Rat.mul_int mm 2) model.u then invalid = [ (0, 1) ]
        else invalid = []);
      claim "step 5: messages received by p0 now have delay d"
        (Array.for_all Fun.id
           (Array.init model.n (fun i ->
                i = 0 || Rat.equal fig6.(i).(0) d)));
      claim "step 5 chop: p1 cut at t + d - m"
        (Rat.equal chop5.(1) (Rat.add t (Rat.sub d mm)));
      claim "step 5 chop: p0 cut >= t + d + m (uses m <= d/3)"
        (Rat.ge chop5.(0) (Rat.add t (Rat.add d mm)));
      claim "step 6 repair yields a valid matrix (Figure 7)"
        (Sim.Net.matrix_valid model fig7);
    ]
end

(** Theorem 5 (sum lower bound |OP| + |AOP| >= d + m): the base matrix
    D (Figure 8) has delay d - m into p0 and p1 and d elsewhere; the
    shift moves p1 later by m, making p1->p0 equal to d - 2m — the
    paper's stated unique (potentially) invalid delay — which is
    chopped with delta = d - m. *)
module Thm5 = struct
  let m (model : Sim.Model.t) = Theorems.slack_m model

  (* Figure 8. *)
  let d_matrix (model : Sim.Model.t) =
    let dm = Rat.sub model.d (m model) in
    Array.init model.n (fun i ->
        Array.init model.n (fun j ->
            if i = j then Rat.zero
            else if j = 0 || j = 1 then dm
            else model.d))

  let shift (model : Sim.Model.t) =
    Array.init model.n (fun i -> if i = 1 then m model else Rat.zero)

  let matrices (model : Sim.Model.t) =
    let fig8 = d_matrix model in
    let fig10 = Shifting.shift_matrix fig8 (shift model) in
    let repaired = Array.map Array.copy fig10 in
    repaired.(1).(0) <- model.d;
    [
      ("Figure 8: D (run R1)", fig8);
      ("Figure 10: after shifting p1 later by m (run S1')", fig10);
      ("Repaired: p1->p0 set to d (run R2)", repaired);
    ]

  let claims (model : Sim.Model.t) =
    if model.n < 3 then invalid_arg "Thm5.claims: needs n >= 3";
    let d = model.d in
    let mm = m model in
    let fig8 = d_matrix model in
    let fig10 = Shifting.shift_matrix fig8 (shift model) in
    let t = Rat.zero in
    (* First message p1 -> p0 can be sent at t + m (when op_1 is
       invoked in the shifted run). *)
    let cuts =
      Chop.chop_times ~matrix:fig10 ~invalid:(1, 0) ~t_m:(Rat.add t mm)
        ~delta:(Rat.sub d mm)
    in
    let offsets = Shifting.shifted_offsets (Array.make model.n Rat.zero) (shift model) in
    [
      claim "D (Figure 8) is valid" (Sim.Net.matrix_valid model fig8);
      claim "shifted offsets are C2 = (0, -m, 0, ...)"
        (Rat.equal offsets.(1) (Rat.neg mm)
        && Rat.equal offsets.(0) Rat.zero);
      claim "shift keeps skew within eps (m <= eps)"
        (Sim.Model.skew_valid model offsets);
      claim "after shift p1->p0 = d - 2m; invalid iff 2m > u"
        (Rat.equal fig10.(1).(0) (Rat.sub d (Rat.mul_int mm 2))
        &&
        let invalid = Shifting.invalid_entries model fig10 in
        if Rat.gt (Rat.mul_int mm 2) model.u then invalid = [ (1, 0) ]
        else invalid = []);
      claim "messages received by p1 after shift have delay d"
        (Array.for_all Fun.id
           (Array.init model.n (fun i ->
                i = 1 || Rat.equal fig10.(i).(1) d)));
      claim "chop: p0 cut at t* = t + d - m"
        (Rat.equal cuts.(0) (Rat.add t (Rat.sub d mm)));
      claim "chop: p1 cut at t + 2d - m >= t + d + 2m (uses m <= d/3)"
        (Rat.equal cuts.(1) (Rat.add t (Rat.sub (Rat.mul_int d 2) mm))
        && Rat.ge cuts.(1) (Rat.add t (Rat.add d (Rat.mul_int mm 2))));
      claim "chop: p2 cut >= t + d + 2m as well"
        (Rat.ge cuts.(2) (Rat.add t (Rat.add d (Rat.mul_int mm 2))));
    ]
end

(* ------------------------------------------------------------------ *)
(* Probing candidate delay matrices against the bound tables           *)

module Probe = struct
  type assessment = {
    kind : Spec.Op_kind.t;
    observed : Rat.t;
    lower : Rat.t option;
    upper : Rat.t;
    meets_lower : bool;
    within_upper : bool;
  }

  type report = {
    matrix_admissible : bool;
    assessments : assessment list;
    claims : claim list;
  }

  (* The per-class lower bounds of Table 1: u/4 for pure accessors
     (Theorem 2, needs n >= 3), (1 - 1/n)u for pure mutators (Theorem 3
     over all n processes), d + min{eps, u, d/3} for mixed operations,
     which are pair-free in every bundled type's Table 2 row. *)
  let lower_bound (model : Sim.Model.t) = function
    | Spec.Op_kind.Pure_accessor ->
        if model.n >= 3 then Some (Theorems.thm2_pure_accessor model) else None
    | Spec.Op_kind.Pure_mutator ->
        if model.n >= 2 then Some (Theorems.thm3_last_sensitive model)
        else None
    | Spec.Op_kind.Mixed -> Some (Theorems.thm4_pair_free model)

  let assess ~(model : Sim.Model.t) ~x ~matrix ~observed =
    let matrix_admissible = Sim.Net.matrix_valid model matrix in
    let assessments =
      List.map
        (fun (kind, worst) ->
          let lower = lower_bound model kind in
          let upper = Theorems.ub_for_class model ~x kind in
          {
            kind;
            observed = worst;
            lower;
            upper;
            meets_lower =
              (match lower with
              | Some lo -> Rat.ge worst lo
              | None -> false);
            within_upper = Rat.le worst upper;
          })
        observed
    in
    let claims =
      claim "candidate matrix admissible for the model" matrix_admissible
      :: List.concat_map
           (fun a ->
             let k = Spec.Op_kind.to_string a.kind in
             let within =
               claim
                 (Printf.sprintf
                    "[%s] worst latency %s within Algorithm 1's bound %s" k
                    (Rat.to_string a.observed) (Rat.to_string a.upper))
                 a.within_upper
             in
             match a.lower with
             | None -> [ within ]
             | Some lo ->
                 [
                   within;
                   claim
                     (Printf.sprintf
                        "[%s] worst latency %s realizes the lower bound %s \
                         (tightness witness)"
                        k (Rat.to_string a.observed) (Rat.to_string lo))
                     a.meets_lower;
                 ])
           assessments
    in
    { matrix_admissible; assessments; claims }

  (* A candidate witnesses tightness when it is an admissible execution
     whose worst latency in some class reaches that class's lower
     bound: the adversary found by shrinking is then as strong as the
     proofs' hand-built one. *)
  let witnesses_tightness r =
    r.matrix_admissible
    && List.exists (fun a -> a.meets_lower) r.assessments

  let pp ppf r =
    Format.fprintf ppf "@[<v>matrix admissible: %b@," r.matrix_admissible;
    List.iter
      (fun a ->
        Format.fprintf ppf "[%s] observed %s; lower %s (%s); upper %s (%s)@,"
          (Spec.Op_kind.to_string a.kind)
          (Rat.to_string a.observed)
          (match a.lower with None -> "n/a" | Some lo -> Rat.to_string lo)
          (if a.meets_lower then "reached" else "not reached")
          (Rat.to_string a.upper)
          (if a.within_upper then "respected" else "EXCEEDED");
      )
      r.assessments;
    Format.fprintf ppf "tightness witness: %b@]" (witnesses_tightness r)
end
