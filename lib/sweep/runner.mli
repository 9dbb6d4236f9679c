(** The one campaign runner behind sweep cells, load shards and spool
    merges.

    Given [n] keyed items, {!run} replays the journals by key and input
    fingerprint, runs the items still pending on the {!Pool}, appends
    each fresh result to the journal, and returns positional outcomes,
    per-item meta and resume stats.  It merges nothing: callers fold
    their summaries over the outcome array once the pool is done, so no
    result depends on how items were split across domains. *)

(** Per-item observability, never fingerprinted: replayed items carry
    zero wall time and attempts. *)
type meta = { wall_s : float; attempts : int; replayed : bool }

(** How a campaign's items were answered. *)
type resume_stats = {
  replayed : int;  (** items answered from a journal *)
  invalidated : int;  (** journaled items re-run because inputs changed *)
  executed : int;  (** items evaluated in this process *)
  interrupted : bool;  (** a stop request drained the pool early *)
  journal_diagnostics : string list;
      (** named corruption/truncation findings from journal loading *)
}

(** Where results are journaled. *)
type journal = {
  header : string;  (** {!Journal.header} of the record schema *)
  replay : string list;
      (** journals to replay, in order; the last record of a key wins *)
  append : string option;  (** the journal fresh results go to *)
  sync_every : int;  (** appends between fsyncs *)
  replay_failures : bool;
      (** replay journaled [Error]s too; otherwise they run again *)
}

type 'r t = {
  outcomes : 'r Pool.outcome array;  (** positional *)
  meta : meta array;  (** positional *)
  resume : resume_stats;
  wall_s : float;  (** monotonic wall time of the whole call *)
}

val in_dir :
  header:string -> sync_every:int -> replay_failures:bool -> string -> journal
(** The journal of a resumable run: [dir/journal], replayed and then
    appended to. *)

val input_fingerprint :
  ?code_fp:string ->
  max_events:int option ->
  max_check_nodes:int option ->
  Core.Runtime.checker ->
  string ->
  int
(** FNV-1a over an item's key plus everything else that shapes its
    result: the step and checker budgets, the checker, the compiler
    version, and an MD5 of the running binary ([code_fp] overrides it;
    tests).  A journaled result replays only while this still matches,
    so a rebuild invalidates items one by one.  Apply it to everything
    but the key once per campaign. *)

val run :
  jobs:int ->
  fail_fast:bool ->
  should_stop:(unit -> bool) option ->
  journal:journal option ->
  key:(int -> string) ->
  input_fp:(int -> int) ->
  n:int ->
  (int -> ('r, string) result * int) ->
  'r t
(** [run ... eval] answers items [0 .. n-1]; [eval i] returns the
    result and the attempts it spent.  [key] and [input_fp] are only
    consulted when [journal] is set.  [jobs], [fail_fast] and
    [should_stop] are {!Pool.map}'s; [should_stop] is polled once more
    at the end to report [interrupted].  An [eval] that raises leaves
    its item [Failed] and unjournaled. *)
