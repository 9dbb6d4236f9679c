(* Fixed domain pool over an indexed work queue.

   The queue is an atomic cursor into [0 .. n-1]: each worker claims
   the next unclaimed index with [fetch_and_add], evaluates it, and
   writes the outcome into its own slot of the results array — distinct
   slots, so no synchronization beyond the final [Domain.join] (which
   establishes the happens-before edge the main domain needs to read
   the array).  The queue is bounded by construction: at most [jobs]
   cells are in flight, nothing is buffered.

   Cancellation ([fail_fast]): the first [Error] (or escaped exception)
   raises a shared stop flag; workers re-check the flag before claiming
   the next index, so in-flight cells complete and are reported while
   unclaimed cells are left [Skipped] — a prompt stop with no lost
   reports.  [should_stop] is the same mechanism driven from outside
   (SIGINT, a deadline, a test harness): polled before each claim, so a
   stop request drains in-flight cells and never loses a report.

   Determinism: a worker's behaviour depends only on the index it
   claims (callers derive any randomness from the cell's coordinates,
   never from [Domain.self ()]), so the outcome array is identical for
   any [jobs] count; only the partition of indices across domains
   varies, and no per-domain state exists for it to leak into.  With
   [jobs = 1] everything runs inline on the calling domain. *)

type 'a outcome = Done of 'a | Failed of string | Skipped

let map (type r) ?should_stop ~jobs ~fail_fast ~n
    (f : int -> (r, string) result) : r outcome array =
  let jobs = if jobs < 1 then 1 else jobs in
  let externally_stopped =
    match should_stop with None -> fun () -> false | Some f -> f
  in
  let results = Array.make n Skipped in
  let next = Atomic.make 0 in
  let stop = Atomic.make false in
  let worker () =
    let rec loop () =
      if (not (Atomic.get stop)) && not (externally_stopped ()) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f i with
          | Ok v -> results.(i) <- Done v
          | Error msg ->
              results.(i) <- Failed msg;
              if fail_fast then Atomic.set stop true
          | exception exn ->
              results.(i) <- Failed (Printexc.to_string exn);
              if fail_fast then Atomic.set stop true);
          loop ()
        end
      end
    in
    loop ()
  in
  if jobs = 1 then worker ()
  else Array.iter Domain.join (Array.init jobs (fun _ -> Domain.spawn worker));
  results

(* Process-wide graceful-shutdown flag wired to SIGINT/SIGTERM.

   The handler only flips an atomic — safe from a signal context — and
   then restores the default disposition so a second signal kills the
   process the usual way (an escape hatch if draining wedges).  Pool
   workers observe the flag through [should_stop]; the campaign layer
   flushes its journal and exits nonzero with a resume hint. *)
module Interrupt = struct
  let flag = Atomic.make false
  let requested () = Atomic.get flag
  let request () = Atomic.set flag true
  let reset () = Atomic.set flag false

  let install () =
    let handle signal (_ : int) =
      Atomic.set flag true;
      try Sys.set_signal signal Sys.Signal_default with _ -> ()
    in
    List.iter
      (fun signal ->
        try Sys.set_signal signal (Sys.Signal_handle (handle signal))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ]
end
