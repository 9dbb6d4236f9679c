(* The one durable campaign loop (steps in runner.mli).  A load shard
   is a campaign item just like a sweep cell because linearizability is
   local (paper §2.3): its result is a pure function of its inputs. *)

type meta = { wall_s : float; replayed : bool }

type resume_stats = {
  replayed : int;
  invalidated : int;
  executed : int;
  interrupted : bool;
  journal_diagnostics : string list;
}

type journal = {
  header : string;
  replay : string list;
  append : string option;
  sync_every : int;
  replay_failures : bool;
}

type 'r t = {
  outcomes : 'r Pool.outcome array;
  meta : meta array;
  resume : resume_stats;
  wall_s : float;
}

let in_dir ~header ~sync_every ~replay_failures dir =
  let path = Filename.concat dir "journal" in
  { header; replay = [ path ]; append = Some path; sync_every; replay_failures }

(* Digest of the running binary: any rebuild re-runs journaled items
   (their semantics may have changed) while an unchanged binary replays
   them.  Lazy: hashing the executable costs a file read. *)
let code_fingerprint =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ | Unix.Unix_error _ -> "unknown")

(* The environment suffix is rendered once per campaign, and only when
   a journal asks for it: forcing the code digest reads the binary. *)
let input_fingerprint ?code_fp ~max_events ~max_check_nodes checker =
  let opt = function None -> "none" | Some n -> string_of_int n in
  let env =
    lazy
      (Printf.sprintf
         ";max_events=%s;max_check_nodes=%s;checker=%s;ocaml=%s;code=%s"
         (opt max_events) (opt max_check_nodes)
         (Core.Runtime.checker_name checker)
         Sys.ocaml_version
         (match code_fp with
         | Some c -> c
         | None -> Lazy.force code_fingerprint))
  in
  fun key -> Core.Hash.fnv1a_after (Core.Hash.fnv1a key) (Lazy.force env)

let elapsed t0 = Core.Clock.now_s () -. t0

let run ~jobs ~fail_fast ~should_stop ~journal ~key ~input_fp ~n eval =
  let t0 = Core.Clock.now_s () in
  (* Every key and input fingerprint is rendered here, before the pool
     starts: [input_fp] forces the code digest's [Lazy], and forcing a
     lazy from two domains at once raises [CamlinternalLazy.Undefined]
     (OCaml 5).  Workers only read the arrays. *)
  let keys, fps =
    match journal with
    | None -> ([||], [||])
    | Some _ -> (Array.init n key, Array.init n input_fp)
  in
  let outcomes = Array.make n Pool.Skipped in
  let meta = Array.make n { wall_s = 0.0; replayed = false } in
  let replayed = ref 0 and invalidated = ref 0 and diagnostics = ref [] in
  let replay i o =
    outcomes.(i) <- o;
    meta.(i) <- { wall_s = 0.0; replayed = true };
    incr replayed
  in
  (* Step 1.  Diagnostics about a journal this run does not append to
     (another worker's) name the file. *)
  Option.iter
    (fun j ->
      let loaded =
        List.map (fun path -> (path, Journal.load ~path ~fp:j.header)) j.replay
      in
      diagnostics :=
        List.concat_map
          (fun (path, (_, diags)) ->
            List.map
              (fun d ->
                let s = Journal.diagnostic_to_string d in
                if Some path = j.append then s
                else Filename.basename path ^ ": " ^ s)
              diags)
          loaded;
      let tbl = Journal.index (List.concat_map (fun (_, (r, _)) -> r) loaded) in
      for i = 0 to n - 1 do
        match Hashtbl.find_opt tbl keys.(i) with
        | Some r when r.Journal.input_fp <> fps.(i) -> incr invalidated
        | Some { Journal.payload = Ok v; _ } -> replay i (Pool.Done v)
        | Some { Journal.payload = Error msg; _ } when j.replay_failures ->
            replay i (Pool.Failed msg)
        | Some _ | None -> ()
      done)
    journal;
  let pending =
    Array.of_list
      (List.filter (fun i -> not meta.(i).replayed) (List.init n Fun.id))
  in
  let writer =
    match journal with
    | Some { append = Some path; header; sync_every; _ } ->
        Journal.mkdir_p (Filename.dirname path);
        Some (Journal.writer ~sync_every ~path ~fp:header ())
    | _ -> None
  in
  (* Steps 2 and 3. *)
  let fresh =
    Fun.protect
      ~finally:(fun () -> Option.iter Journal.close writer)
      (fun () ->
        Pool.map ?should_stop ~jobs ~fail_fast ~n:(Array.length pending)
          (fun j ->
            let i = pending.(j) in
            let c0 = Core.Clock.now_s () in
            let r = eval i in
            meta.(i) <- { wall_s = elapsed c0; replayed = false };
            Option.iter
              (fun w -> Journal.append w ~key:keys.(i) ~input_fp:fps.(i) r)
              writer;
            r))
  in
  let executed = ref 0 in
  Array.iteri
    (fun j o ->
      (match o with
      | Pool.Skipped -> ()
      | Pool.Done _ | Pool.Failed _ -> incr executed);
      outcomes.(pending.(j)) <- o)
    fresh;
  let interrupted = match should_stop with Some f -> f () | None -> false in
  {
    outcomes;
    meta;
    resume =
      {
        replayed = !replayed;
        invalidated = !invalidated;
        executed = !executed;
        interrupted;
        journal_diagnostics = !diagnostics;
      };
    wall_s = elapsed t0;
  }
