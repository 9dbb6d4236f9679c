(* Tests for the shifting machinery (Theorem 1): matrix arithmetic,
   offset arithmetic, view preservation and admissibility on real
   traces. *)

let rat = Rat.make
let model = Sim.Model.make ~n:3 ~d:(rat 10 1) ~u:(rat 4 1) ~eps:(rat 2 1)

let test_shifted_offsets () =
  let offsets = [| Rat.zero; rat 1 1; rat (-1) 1 |] in
  let x = [| rat 1 2; Rat.zero; rat (-1) 2 |] in
  let shifted = Bounds.Shifting.shifted_offsets offsets x in
  Alcotest.(check (list string)) "c_i - x_i"
    [ "-1/2"; "1"; "-1/2" ]
    (Array.to_list (Array.map Rat.to_string shifted));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Shifting.shifted_offsets: length mismatch") (fun () ->
      ignore (Bounds.Shifting.shifted_offsets offsets [| Rat.zero |]))

let test_shifted_delay () =
  (* Theorem 1 part 2: delta - x_src + x_dst. *)
  Alcotest.(check string) "delta - 1 + 2" "9"
    (Rat.to_string
       (Bounds.Shifting.shifted_delay ~delay:(rat 8 1) ~x_src:(rat 1 1)
          ~x_dst:(rat 2 1)))

let test_shift_matrix () =
  let m = Sim.Net.uniform_matrix ~n:3 (rat 8 1) in
  let x = [| rat 1 1; Rat.zero; rat (-1) 1 |] in
  let shifted = Bounds.Shifting.shift_matrix m x in
  Alcotest.(check string) "0->1 loses x0" "7" (Rat.to_string shifted.(0).(1));
  Alcotest.(check string) "1->0 gains x0" "9" (Rat.to_string shifted.(1).(0));
  Alcotest.(check string) "0->2: -1-1" "6" (Rat.to_string shifted.(0).(2));
  Alcotest.(check string) "2->0: +1+1" "10" (Rat.to_string shifted.(2).(0));
  Alcotest.(check string) "1->2" "7" (Rat.to_string shifted.(1).(2));
  Alcotest.(check string) "diagonal untouched" "8"
    (Rat.to_string shifted.(1).(1))

let test_invalid_entries () =
  let m = Sim.Net.uniform_matrix ~n:3 (rat 8 1) in
  m.(0).(1) <- rat 11 1;
  m.(2).(0) <- rat 5 1;
  Alcotest.(check (list (pair int int)))
    "both invalid entries found"
    [ (0, 1); (2, 0) ]
    (Bounds.Shifting.invalid_entries model m)

let test_max_skew () =
  Alcotest.(check string) "skew of mixed offsets" "5/2"
    (Rat.to_string
       (Sim.Model.max_skew [| rat (-1) 1; rat 3 2; Rat.zero |]));
  Alcotest.(check bool) "admissible within eps" true
    (Sim.Model.skew_valid model [| Rat.zero; rat 2 1; rat 1 1 |]);
  Alcotest.(check bool) "inadmissible beyond eps" false
    (Sim.Model.skew_valid model [| Rat.zero; rat 5 2; Rat.zero |])

(* --- trace-level shifting on real runs of Algorithm 1 --- *)

module Reg = Spec.Register
module Algo = Core.Wtlw.Make (Reg)
module Check = Lin.Checker.Make (Reg)

let sample_run () =
  let cluster =
    Algo.create ~model ~x:(rat 2 1) ~offsets:(Array.make 3 Rat.zero)
      ~delay:(Sim.Net.constant (rat 8 1))
      ()
  in
  List.iteri
    (fun i (proc, inv) ->
      Sim.Engine.schedule_invoke cluster.engine ~at:(rat (i * 20) 1) ~proc inv)
    [ (0, Reg.Write 1); (1, Reg.Read); (2, Reg.Write 2); (0, Reg.Read) ];
  Sim.Engine.run cluster.engine;
  Sim.Engine.trace cluster.engine

let test_shift_preserves_views () =
  let trace = sample_run () in
  let x = [| rat 1 1; rat (-1) 1; Rat.zero |] in
  let shifted = Bounds.Shifting.shift_trace trace x in
  (* Same number of events, and each process's event subsequence keeps
     its length and kind sequence. *)
  Alcotest.(check int) "event count preserved"
    (List.length (Sim.Trace.events trace))
    (List.length (Sim.Trace.events shifted));
  for proc = 0 to 2 do
    let kind = function
      | Sim.Trace.Invoke _ -> "inv"
      | Respond _ -> "resp"
      | Send _ -> "send"
      | Deliver _ -> "dlv"
      | Timer_set _ -> "tset"
      | Timer_fire _ -> "tfire"
      | Timer_cancel _ -> "tcancel"
      | Fault _ -> "fault"
    in
    let sig_of t =
      List.map kind (Bounds.Shifting.view_signature t proc)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "p%d view preserved" proc)
      (sig_of trace) (sig_of shifted)
  done

let test_shift_zero_is_identity () =
  let trace = sample_run () in
  let shifted = Bounds.Shifting.shift_trace trace (Array.make 3 Rat.zero) in
  let times t = List.map Sim.Trace.event_time (Sim.Trace.events t) in
  Alcotest.(check (list string)) "times unchanged"
    (List.map Rat.to_string (times trace))
    (List.map Rat.to_string (times shifted))

let test_shift_changes_delays_per_theorem1 () =
  let trace = sample_run () in
  let x = [| rat 1 1; rat (-1) 1; Rat.zero |] in
  let shifted = Bounds.Shifting.shift_trace trace x in
  let delays t =
    List.map (fun (s, d, delay) -> (s, d, delay)) (Sim.Trace.message_delays t)
  in
  List.iter2
    (fun (src, dst, before) (src', dst', after) ->
      Alcotest.(check bool) "same message endpoints" true
        (src = src' && dst = dst');
      Alcotest.(check string)
        (Printf.sprintf "delay %d->%d shifted" src dst)
        (Rat.to_string
           (Bounds.Shifting.shifted_delay ~delay:before ~x_src:x.(src)
              ~x_dst:x.(dst)))
        (Rat.to_string after))
    (delays trace) (delays shifted)

let test_shift_history_latencies () =
  let trace = sample_run () in
  let x = [| rat 1 1; rat (-1) 1; Rat.zero |] in
  let shifted = Bounds.Shifting.shift_trace trace x in
  (* Operations live entirely at one process, so latencies are
     unchanged by shifting. *)
  let lat t =
    List.map Core.Metrics.latency (Sim.Trace.operations t)
    |> List.map Rat.to_string
  in
  Alcotest.(check (list string)) "latencies invariant" (lat trace) (lat shifted)

let test_admissible_shift_stays_linearizable () =
  let trace = sample_run () in
  (* Small shift: delays 8 +- 1/2 stay within [6, 10]; skew 1 <= 2. *)
  let x = [| rat 1 2; Rat.zero; rat (-1) 2 |] in
  Alcotest.(check bool) "shift admissible" true
    (Bounds.Shifting.trace_admissible model ~offsets:(Array.make 3 Rat.zero)
       ~x trace);
  Alcotest.(check bool) "shifted history linearizable" true
    (Check.is_linearizable
       (Sim.Trace.operations (Bounds.Shifting.shift_trace trace x)))

let test_inadmissible_shift_detected () =
  let trace = sample_run () in
  (* Large shift: 8 + 3 = 11 > d. *)
  let x = [| rat 3 1; Rat.zero; Rat.zero |] in
  Alcotest.(check bool) "shift inadmissible" false
    (Bounds.Shifting.trace_admissible model ~offsets:(Array.make 3 Rat.zero)
       ~x trace)

(* Property: shifting by any vector and then by its negation is the
   identity on event times. *)
let prop_shift_involution =
  QCheck.Test.make ~name:"shift then unshift is identity" ~count:50
    QCheck.(triple (int_range (-4) 4) (int_range (-4) 4) (int_range (-4) 4))
    (fun (a, b, c) ->
      let trace = sample_run () in
      let x = [| rat a 2; rat b 2; rat c 2 |] in
      let neg = Array.map Rat.neg x in
      let roundtrip =
        Bounds.Shifting.shift_trace (Bounds.Shifting.shift_trace trace x) neg
      in
      let times t =
        List.map
          (fun e -> Rat.to_string (Sim.Trace.event_time e))
          (Sim.Trace.events t)
      in
      times roundtrip = times trace)

let () =
  Alcotest.run "shifting"
    [
      ( "matrix level",
        [
          Alcotest.test_case "offsets" `Quick test_shifted_offsets;
          Alcotest.test_case "single delay" `Quick test_shifted_delay;
          Alcotest.test_case "matrix" `Quick test_shift_matrix;
          Alcotest.test_case "invalid entries" `Quick test_invalid_entries;
          Alcotest.test_case "max skew" `Quick test_max_skew;
        ] );
      ( "trace level",
        [
          Alcotest.test_case "views preserved" `Quick test_shift_preserves_views;
          Alcotest.test_case "zero shift identity" `Quick
            test_shift_zero_is_identity;
          Alcotest.test_case "delays per theorem 1" `Quick
            test_shift_changes_delays_per_theorem1;
          Alcotest.test_case "latencies invariant" `Quick
            test_shift_history_latencies;
          Alcotest.test_case "admissible shift linearizable" `Quick
            test_admissible_shift_stays_linearizable;
          Alcotest.test_case "inadmissible detected" `Quick
            test_inadmissible_shift_detected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_shift_involution ] );
    ]
