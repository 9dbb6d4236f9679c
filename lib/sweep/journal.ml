(* Append-only checkpoint journal for durable campaigns.

   Layout: one text header line identifying the writer (kind, schema,
   anything the caller folds into [fp]) followed by framed binary
   records:

     +-------+--------+----------+---------------+
     | magic | length | checksum | Marshal bytes |
     |  4 B  |  4 B   |   4 B    |   length B    |
     +-------+--------+----------+---------------+

   The checksum is FNV-1a over the payload bytes, so a record cut short
   by a crash — or a flipped byte — is detected on load.  Loading stops
   at the first bad frame and reports it as a named diagnostic; the
   valid prefix is always usable.  Opening a writer on an existing
   journal truncates that invalid tail first, so records appended after
   a crash are never shadowed by a torn frame in front of them.

   The writer is mutex-guarded (pool domains append concurrently) and
   fsyncs every [sync_every] records; [sync_every = 1] (the default)
   makes every completed cell durable before the next one starts. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let magic = "RJ1\n"
let frame_overhead = String.length magic + 8

(* FNV-1a, 32-bit: the one stable hash behind frame checksums, derived
   seeds and input fingerprints.  Not [Hashtbl.hash]: that function is
   not specified across OCaml versions, and recorded fingerprints must
   stay comparable. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

(* The caller's part of the header line binds the file to a record
   schema and to the compiler (Marshal compatibility). *)
let header schema = Printf.sprintf "%s;ocaml=%s" schema Sys.ocaml_version

type diagnostic = { offset : int; reason : string }

let diagnostic_to_string { offset; reason } =
  Printf.sprintf "journal: %s at byte %d" reason offset

type 'a record = { key : string; input_fp : int; payload : 'a }

let header_line fp =
  if String.contains fp '\n' then
    invalid_arg "Journal: header fingerprint must not contain newlines";
  "repro-journal 1 " ^ fp ^ "\n"

(* Scan [path]: the valid record prefix, diagnostics for whatever cut
   the scan short, and the byte offset just past the last valid frame
   (where a writer may safely resume appending).  A missing file is an
   empty journal; a header mismatch (journal written for a different
   grid/schema) yields no records and a diagnostic — the caller decides
   whether to start over. *)
let scan (type a) ~path ~fp () :
    a record list * diagnostic list * int * bool =
  let hdr = header_line fp in
  let hdr_len = String.length hdr in
  match open_in_bin path with
  | exception Sys_error _ -> ([], [], 0, false)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let file_len = in_channel_length ic in
          let header_ok =
            file_len >= hdr_len
            && (try really_input_string ic hdr_len = hdr with _ -> false)
          in
          if not header_ok then
            let reason =
              Printf.sprintf
                "header mismatch (wrote for a different grid or schema); \
                 ignoring %d bytes"
                file_len
            in
            ([], [ { offset = 0; reason } ], 0, false)
          else begin
            let read_u32 () =
              let b = really_input_string ic 4 in
              (Char.code b.[0] lsl 24)
              lor (Char.code b.[1] lsl 16)
              lor (Char.code b.[2] lsl 8)
              lor Char.code b.[3]
            in
            (* Every frame starts where the valid prefix ends; the first
               bad one stops the scan with one named diagnostic. *)
            let stop acc offset fmt =
              Printf.ksprintf
                (fun reason -> (List.rev acc, [ { offset; reason } ], offset))
                fmt
            in
            let rec loop acc =
              let offset = pos_in ic in
              let rest = file_len - offset in
              if rest <= 0 then (List.rev acc, [], offset)
              else if rest < frame_overhead then
                stop acc offset
                  "truncated frame header (%d trailing bytes dropped)" rest
              else if really_input_string ic (String.length magic) <> magic then
                stop acc offset
                  "corrupt frame magic (%d remaining bytes dropped)" rest
              else
                let len = read_u32 () in
                let sum = read_u32 () in
                if len < 0 || len > file_len - pos_in ic then
                  stop acc offset
                    "truncated record body (want %d bytes, have %d)" len
                    (file_len - pos_in ic)
                else
                  let body = really_input_string ic len in
                  if fnv1a body <> sum then
                    stop acc offset
                      "record checksum mismatch (%d remaining bytes dropped)" rest
                  else
                    match (Marshal.from_string body 0 : string * int * a) with
                    | key, input_fp, payload ->
                        loop ({ key; input_fp; payload } :: acc)
                    | exception _ ->
                        stop acc offset
                          "unreadable record (%d remaining bytes dropped)" rest
            in
            let records, diags, valid_end = loop [] in
            (records, diags, valid_end, true)
          end)

let load ~path ~fp =
  let records, diags, _, _ = scan ~path ~fp () in
  (records, diags)

let index records =
  let tbl = Hashtbl.create 64 in
  (* Last record wins: a cell journaled twice (retry after an unclean
     stop, stale-lease takeover) resolves to its most recent result. *)
  List.iter (fun r -> Hashtbl.replace tbl r.key r) records;
  tbl

type writer = {
  oc : out_channel;
  fd : Unix.file_descr;
  sync_every : int;
  mutable pending : int;
  lock : Mutex.t;
}

let writer ?(sync_every = 1) ~path ~fp () =
  let _, _, valid_end, header_ok = scan ~path ~fp () in
  let oc =
    if header_ok then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd valid_end;
      ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
      Unix.out_channel_of_descr fd
    end
    else begin
      let oc =
        open_out_gen
          [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
          0o644 path
      in
      output_string oc (header_line fp);
      flush oc;
      oc
    end
  in
  {
    oc;
    fd = Unix.descr_of_out_channel oc;
    sync_every = max 1 sync_every;
    pending = 0;
    lock = Mutex.create ();
  }

let sync_locked w =
  flush w.oc;
  (try Unix.fsync w.fd with Unix.Unix_error _ -> ());
  w.pending <- 0

let append w ~key ~input_fp payload =
  Mutex.protect w.lock (fun () ->
      let body = Marshal.to_string (key, input_fp, payload) [] in
      output_string w.oc magic;
      let put_u32 v =
        output_char w.oc (Char.chr ((v lsr 24) land 0xff));
        output_char w.oc (Char.chr ((v lsr 16) land 0xff));
        output_char w.oc (Char.chr ((v lsr 8) land 0xff));
        output_char w.oc (Char.chr (v land 0xff))
      in
      put_u32 (String.length body);
      put_u32 (fnv1a body);
      output_string w.oc body;
      w.pending <- w.pending + 1;
      if w.pending >= w.sync_every then sync_locked w)

let flush w = Mutex.protect w.lock (fun () -> sync_locked w)

let close w =
  Mutex.protect w.lock (fun () ->
      sync_locked w;
      close_out_noerr w.oc)
