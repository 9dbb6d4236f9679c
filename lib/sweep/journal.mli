(** Append-only checkpoint journal for durable campaigns.

    A journal is a text header line (binding the file to a caller
    fingerprint — schema, grid, compiler...) followed by framed binary
    records: 4-byte magic, big-endian payload length, FNV-1a payload
    checksum, then the [Marshal]-encoded [(key, input_fp, payload)]
    triple.  Loading validates every frame and stops at the first bad
    one, reporting it as a named {!diagnostic} — a crash mid-append (or
    a flipped byte) costs at most the torn record, never the valid
    prefix.  Opening a {!writer} on an existing journal truncates any
    invalid tail before appending.

    The payload type is chosen by the caller and must be
    [Marshal]-safe; reading a journal with a different payload type
    than it was written with is undefined (guard with a distinct [fp]
    per record kind). *)

val mkdir_p : string -> unit
(** Create [dir] and any missing parents (shared by the durable-run
    and spool layers). *)

val header : string -> string
(** [header schema] is the header fingerprint for a journal of
    [schema]'s records, e.g. ["repro-sweep-cells;schema=1"], bound to
    the compiler version as well ([Marshal] compatibility).  Bump the
    schema whenever the payload type changes: a journal whose header
    does not match is never decoded. *)

type diagnostic = { offset : int; reason : string }

val diagnostic_to_string : diagnostic -> string

type 'a record = { key : string; input_fp : int; payload : 'a }

val load : path:string -> fp:string -> 'a record list * diagnostic list
(** Valid record prefix (file order) plus diagnostics for whatever cut
    the scan short: nothing for a clean journal, one entry for a torn
    tail / checksum mismatch / header mismatch.  A missing file is an
    empty journal with no diagnostics. *)

val index : 'a record list -> (string, 'a record) Hashtbl.t
(** Key the records for replay; when a key was journaled more than
    once (re-run after an unclean stop, lease takeover) the last record
    wins. *)

type writer

val writer : ?sync_every:int -> path:string -> fp:string -> unit -> writer
(** Open [path] for appending.  A file whose header matches [fp] keeps
    its valid record prefix (any torn tail is truncated first); a
    missing or mismatching file is (re)created empty with the header
    line.  [sync_every] (default 1) is the number of appends between
    [fsync]s.
    @raise Invalid_argument if [fp] contains a newline. *)

val append : writer -> key:string -> input_fp:int -> 'a -> unit
(** Append one framed record; thread-safe across pool domains. *)

val flush : writer -> unit
(** Flush buffered records and [fsync], regardless of [sync_every]. *)

val close : writer -> unit
(** {!flush} then close the underlying descriptor. *)
