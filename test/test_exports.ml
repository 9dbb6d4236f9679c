(* Dead-export gate: every value a [lib/] interface exports has a caller.

   The gate reads the [.cmti]/[.cmt] files dune writes for [lib/],
   [bin/], [test/], [examples/] and [benchmark/], and resolves every
   identifier by the uid of its declaration, so a name that is also used
   elsewhere ([run], [make], [pp]) is told apart from its namesakes.

   An export is a value declared in a [lib/] unit's interface: its
   [.cmti], or the inferred signature of a [.ml]-only unit, including
   the members of its functors' results and of its module types.  The
   findings are:
   - an export no unit references, not even its own;
   - an [.mli] value referenced only inside its own unit;
   - an export whose only callers outside its own unit are in
     [benchmark/];
   - an optional parameter of an export that no call site outside
     [test/] and [examples/] passes: a setting only tests and examples
     set has one value in use, and is a constant.

   One declaration can stand behind several uids: the [.mli] and the
   [.ml] each give a value its own, and [include] and a constrained
   re-export ([module M : sig ... end] over [module M = M]) add more.
   Signatures that describe one module are matched path by path and
   their uids merged: a unit's interface and implementation, a module
   and the module type it is constrained or packed to or passed to a
   functor as.  A reference to any uid of a declaration counts for all
   of them.  A module passed to a functor whose parameter the gate
   cannot read ([Map.Make]) uses the values the coercion keeps, and a
   label passed to a plain alias ([let f = M.f]) is passed to [M.f].

   [test/exports.allow] holds the findings that stay, one per line: the
   finding ([Lib.Unit.path], or [Lib.Unit.path?label] for an optional
   parameter), a space, and the reason.  [#] starts a comment line.  The
   test fails when a finding is not listed and when a listed entry is no
   longer found, so the list can only shrink. *)

open Types

(* {1 Loading} *)

type unit_info = {
  name : string;  (** compilation unit, e.g. [Core__Metrics] *)
  path : string;  (** its [.cmt]/[.cmti] path, less the extension *)
  intf : signature option;  (** from the [.cmti] *)
  impl : Typedtree.structure option;  (** from the [.cmt] *)
}

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then files p else [ p ])

let load roots =
  let tbl = Hashtbl.create 256 in
  let add path name intf impl =
    let prev =
      Option.value (Hashtbl.find_opt tbl path)
        ~default:{ name; path; intf = None; impl = None }
    in
    Hashtbl.replace tbl path
      {
        prev with
        intf = (if Option.is_some intf then intf else prev.intf);
        impl = (if Option.is_some impl then impl else prev.impl);
      }
  in
  List.concat_map files roots
  |> List.iter (fun f ->
         if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti"
         then
           let cmt = Cmt_format.read_cmt f in
           let path = Filename.remove_extension f in
           match cmt.cmt_annots with
           | Implementation s -> add path cmt.cmt_modname None (Some s)
           | Interface s -> add path cmt.cmt_modname (Some s.sig_type) None
           | _ -> ());
  Hashtbl.fold (fun _ u acc -> u :: acc) tbl []
  |> List.sort (fun a b -> compare a.path b.path)

let under roots u =
  List.exists (fun r -> String.starts_with ~prefix:(r ^ "/") u.path) roots

(* [Core__Metrics] -> [Core.Metrics] *)
let display unit =
  let rec go i =
    match String.index_from_opt unit i '_' with
    | Some j when j + 1 < String.length unit && unit.[j + 1] = '_' ->
        String.sub unit i (j - i) ^ "." ^ go (j + 2)
    | Some j -> String.sub unit i (j + 1 - i) ^ go (j + 1)
    | None -> String.sub unit i (String.length unit - i)
  in
  go 0

(* {1 Declarations}

   A uid is unique within one file only: a unit's [.cmti] and [.cmt]
   number their declarations independently.  A declaration is a uid and
   the side it belongs to. *)

type decl = { uid : Shape.Uid.t; mli : bool }

(* Where a signature or tree was read: its unit, and whether from the
   unit's [.cmti]. *)
type scope = { unit : string; from_mli : bool }

type binding = Module of module_type | Modtype of module_type option

type env = {
  units : (string, unit_info) Hashtbl.t;  (** the export units, by name *)
  locals : (scope * string, binding) Hashtbl.t;
      (** modules and module types bound inside a unit, by unique name *)
}

let owner : Shape.Uid.t -> string option = function
  | Item { comp_unit; _ } -> Some comp_unit
  | _ -> None

let scope_of u = { unit = u.name; from_mli = Option.is_some u.intf }

let signature_of u =
  match (u.intf, u.impl) with
  | Some s, _ -> s
  | None, Some s -> s.str_type
  | None, None -> []

(* A uid read in [scope]: the scope's own side for the scope's unit; for
   another unit, the side its [.cmi] came from. *)
let decl env scope uid =
  match owner uid with
  | Some o when o = scope.unit -> { uid; mli = scope.from_mli }
  | Some o ->
      let mli =
        match Hashtbl.find_opt env.units o with
        | Some u -> Option.is_some u.intf
        | None -> false
      in
      { uid; mli }
  | None -> { uid; mli = false }

let rec bind_sig tbl scope sg =
  List.iter
    (function
      | Sig_module (id, _, md, _, _) ->
          Hashtbl.replace tbl (scope, Ident.unique_name id) (Module md.md_type);
          bind_mty tbl scope md.md_type
      | Sig_modtype (id, mtd, _) ->
          Hashtbl.replace tbl (scope, Ident.unique_name id)
            (Modtype mtd.mtd_type);
          Option.iter (bind_mty tbl scope) mtd.mtd_type
      | _ -> ())
    sg

and bind_mty tbl scope = function
  | Mty_signature sg -> bind_sig tbl scope sg
  | Mty_functor (Named (Some id, p), r) ->
      Hashtbl.replace tbl (scope, Ident.unique_name id) (Module p);
      bind_mty tbl scope r
  | Mty_functor (_, r) -> bind_mty tbl scope r
  | Mty_ident _ | Mty_alias _ -> ()

(* {1 Module paths}

   Enough of the compiler's environment to expand the aliases and
   module-type names in signatures: a global ident is a loaded unit, a
   local one was bound in the file it occurs in. *)

let find_item sg pick = List.find_map pick sg

let named s = function
  | Sig_module (id, _, md, _, _) when Ident.name id = s -> Some md.md_type
  | _ -> None

let named_type s = function
  | Sig_modtype (id, { mtd_type = Some m; _ }, _) when Ident.name id = s ->
      Some m
  | _ -> None

let rec resolve env pick scope (p : Path.t) =
  match p with
  | Pident id when Ident.global id ->
      Hashtbl.find_opt env.units (Ident.name id)
      |> Option.map (fun u -> (scope_of u, Mty_signature (signature_of u)))
  | Pident id -> (
      match Hashtbl.find_opt env.locals (scope, Ident.unique_name id) with
      | Some (Module m) when pick = `Module -> Some (scope, m)
      | Some (Modtype (Some m)) when pick = `Modtype -> Some (scope, m)
      | _ -> None)
  | Pdot (q, s) ->
      Option.bind (resolve env `Module scope q) (fun (sc, m) ->
          Option.bind (signature env sc m) (fun (sc, sg) ->
              let item = if pick = `Module then named else named_type in
              find_item sg (item s) |> Option.map (fun m -> (sc, m))))
  | Papply _ | Pextra_ty _ -> None

(* The module type behind aliases and module-type names. *)
and scrape env scope m =
  match m with
  | Mty_signature _ | Mty_functor _ -> Some (scope, m)
  | Mty_alias p ->
      Option.bind (resolve env `Module scope p) (fun (sc, m) -> scrape env sc m)
  | Mty_ident p ->
      Option.bind (resolve env `Modtype scope p) (fun (sc, m) ->
          scrape env sc m)

and signature env scope m =
  match scrape env scope m with
  | Some (sc, Mty_signature sg) -> Some (sc, sg)
  | _ -> None

(* Merge the values of two module types that describe one module, path
   by path. *)
let rec link env union (sc1, m1) (sc2, m2) =
  match (scrape env sc1 m1, scrape env sc2 m2) with
  | Some (sc1, Mty_functor (_, r1)), Some (sc2, Mty_functor (_, r2)) ->
      link env union (sc1, r1) (sc2, r2)
  | Some (sc1, Mty_signature s1), Some (sc2, Mty_signature s2) ->
      let same id pick = find_item s2 (pick (Ident.name id)) in
      List.iter
        (function
          | Sig_value (id, vd, _) ->
              same id (fun s -> function
                | Sig_value (id', vd', _) when Ident.name id' = s -> Some vd'
                | _ -> None)
              |> Option.iter (fun vd' ->
                     union (decl env sc1 vd.val_uid) (decl env sc2 vd'.val_uid))
          | Sig_module (id, _, md, _, _) ->
              same id named
              |> Option.iter (fun m' ->
                     link env union (sc1, md.md_type) (sc2, m'))
          | Sig_modtype (id, { mtd_type = Some m; _ }, _) ->
              same id named_type
              |> Option.iter (fun m' -> link env union (sc1, m) (sc2, m'))
          | _ -> ())
        s1
  | _ -> ()

(* The components a module value holds at run time, in the order a
   coercion's positions count them. *)
let runtime_items =
  List.filter (function
    | Sig_value (_, { val_kind = Val_prim _; _ }, _)
    | Sig_type _ | Sig_modtype _ | Sig_class_type _
    | Sig_module (_, Mp_absent, _, _, _) ->
        false
    | Sig_value _ | Sig_typext _ | Sig_module _ | Sig_class _ -> true)

(* The values of a module that a coercion keeps, for a target module type
   that cannot be read (a functor of the standard library): [Map.Make (M)]
   uses [M.compare]. *)
let rec coerced env use (sc, m) (cc : Typedtree.module_coercion) =
  match (signature env sc m, cc) with
  | Some (sc, sg), Tcoerce_structure (fields, _) ->
      let items = Array.of_list (runtime_items sg) in
      List.iter
        (fun (pos, cc) ->
          match items.(pos) with
          | Sig_value (_, vd, _) -> use (decl env sc vd.val_uid)
          | Sig_module (_, _, md, _, _) -> coerced env use (sc, md.md_type) cc
          | _ -> ())
        fields
  | Some (sc, sg), _ ->
      List.iter
        (function
          | Sig_value (_, vd, _) -> use (decl env sc vd.val_uid)
          | Sig_module (_, _, md, _, _) ->
              coerced env use (sc, md.md_type) Tcoerce_none
          | _ -> ())
        sg
  | None, _ -> ()

let rec optional_labels ty =
  match get_desc ty with
  | Tarrow (Optional l, _, r, _) -> l :: optional_labels r
  | Tarrow (_, _, r, _) | Tpoly (r, _) -> optional_labels r
  | _ -> []

type export = {
  decl : decl;
  home : string;  (** the unit that declares it *)
  qualified : string;  (** e.g. [Lin.Checker.Make(T).check] *)
  in_mli : bool;  (** declared in an [.mli], outside any module type *)
  labels : string list;  (** its optional parameters *)
}

(* Every value whose declaration belongs to [u]'s interface.  A
   declaration re-exported within its unit is one export, named by its
   first path. *)
let exports_of (u : unit_info) =
  let acc = ref [] in
  let rec walk prefix in_mli = function
    | Mty_signature sg -> List.iter (item prefix in_mli) sg
    | Mty_functor (Named (Some id, _), r) ->
        walk (Printf.sprintf "%s(%s)" prefix (Ident.name id)) in_mli r
    | Mty_functor (_, r) -> walk (prefix ^ "()") in_mli r
    | Mty_ident _ | Mty_alias _ -> ()
  and item prefix in_mli = function
    | Sig_value (id, vd, _)
      when owner vd.val_uid = Some u.name
           && not (List.exists (fun e -> e.decl.uid = vd.val_uid) !acc) ->
        acc :=
          {
            decl = { uid = vd.val_uid; mli = Option.is_some u.intf };
            home = u.name;
            qualified = prefix ^ "." ^ Ident.name id;
            in_mli;
            labels = optional_labels vd.val_type;
          }
          :: !acc
    | Sig_module (id, _, md, _, _) ->
        walk (prefix ^ "." ^ Ident.name id) in_mli md.md_type
    | Sig_modtype (id, { mtd_type = Some m; _ }, _) ->
        walk (prefix ^ "." ^ Ident.name id) false m
    | _ -> ()
  in
  walk (display u.name) (Option.is_some u.intf)
    (Mty_signature (signature_of u));
  List.rev !acc

(* The [None] the type checker passes for an optional argument that a
   full application leaves out. *)
let omitted (a : Typedtree.expression) =
  match a.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> a.exp_loc.loc_ghost
  | _ -> false

(* {1 The analysis} *)

type finding =
  | Unused of export
  | Local of export
  | Benchmark_only of export
  | Unpassed of export * string

let key = function
  | Unused e | Local e | Benchmark_only e -> e.qualified
  | Unpassed (e, l) -> e.qualified ^ "?" ^ l

let describe = function
  | Unused _ -> "referenced by no unit"
  | Local _ -> "referenced only inside its own unit"
  | Benchmark_only _ -> "called only from benchmark/"
  | Unpassed _ ->
      "optional parameter that no call site outside test/ and examples/ \
       passes"

(* [analyse ~exports ~benchmark ~tests roots]: the findings on the
   exports of the units under [exports], with references read from every
   unit under [roots]; callers under [benchmark] count as benchmark-only,
   and an optional argument passed from a unit under [tests] (and not
   under [exports]) is not passed. *)
let analyse ~exports ~benchmark ~tests roots =
  let all = load roots in
  let export_units = List.filter (under exports) all in
  let env = { units = Hashtbl.create 128; locals = Hashtbl.create 1024 } in
  List.iter (fun u -> Hashtbl.replace env.units u.name u) export_units;
  List.iter
    (fun u ->
      Option.iter
        (bind_sig env.locals { unit = u.name; from_mli = true })
        u.intf;
      Option.iter
        (fun (s : Typedtree.structure) ->
          bind_sig env.locals { unit = u.name; from_mli = false } s.str_type)
        u.impl)
    all;
  let parent = Hashtbl.create 4096 in
  let rec find d =
    match Hashtbl.find_opt parent d with
    | Some p ->
        let r = find p in
        Hashtbl.replace parent d r;
        r
    | None -> d
  in
  let union a b =
    let ra = find a and rb = find b in
    (* [Internal] and predefined uids name no declaration *)
    if ra <> rb && owner ra.uid <> None && owner rb.uid <> None then
      Hashtbl.replace parent ra rb
  in
  (* (declaration, referencing unit), (declaration, label passed), and
     (alias, declaration) for each [let f = M.f] *)
  let refs = ref [] and passed = ref [] and forwards = ref [] in
  List.iter
    (fun u ->
      let here = { unit = u.name; from_mli = false } in
      Option.iter
        (fun i ->
          Option.iter
            (fun (s : Typedtree.structure) ->
              link env union
                ({ here with from_mli = true }, Mty_signature i)
                (here, Mty_signature s.str_type))
            u.impl)
        u.intf;
      let pass =
        if under tests u && not (under exports u) then fun _ _ -> ()
        else fun uid labels ->
          List.iter
            (fun l -> passed := (decl env here uid, l) :: !passed)
            labels
      in
      (* identifiers applied as functions, and bodies of [let f = M.f] *)
      let heads = ref [] and aliases = ref [] in
      let default = Tast_iterator.default_iterator in
      let structure sub (s : Typedtree.structure) =
        List.iter
          (fun (it : Typedtree.structure_item) ->
            match it.str_desc with
            | Tstr_value (_, vbs) ->
                List.iter
                  (fun (vb : Typedtree.value_binding) ->
                    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                    | Tpat_var (id, _), Texp_ident (_, _, vd) ->
                        find_item s.str_type (function
                          | Sig_value (id', vd', _) when Ident.same id id' ->
                              Some vd'.val_uid
                          | _ -> None)
                        |> Option.iter (fun uid ->
                               forwards :=
                                 (decl env here uid, decl env here vd.val_uid)
                                 :: !forwards;
                               aliases := vb.vb_expr :: !aliases)
                    | _ -> ())
                  vbs
            | _ -> ())
          s.str_items;
        default.structure sub s
      in
      let expr sub (e : Typedtree.expression) =
        (match e.exp_desc with
        | Texp_ident (_, _, vd) ->
            refs := (decl env here vd.val_uid, u) :: !refs;
            if List.memq e !heads then
              heads := List.filter (fun h -> h != e) !heads
            else if not (List.memq e !aliases) then
              (* a function passed as a value keeps its optional
                 parameters for whoever applies it *)
              pass vd.val_uid (optional_labels e.exp_type)
        | Texp_apply (({ exp_desc = Texp_ident (_, _, vd); _ } as f), args) ->
            heads := f :: !heads;
            List.iter
              (function
                | ( (Asttypes.Optional l | Labelled l),
                    Some (a : Typedtree.expression) )
                  when not (omitted a) ->
                    pass vd.val_uid [ l ]
                | _ -> ())
              args;
            pass vd.val_uid (optional_labels e.exp_type)
        | Texp_letop { let_; ands; _ } ->
            List.iter
              (fun (b : Typedtree.binding_op) ->
                refs := (decl env here b.bop_op_val.val_uid, u) :: !refs)
              (let_ :: ands)
        | _ -> ());
        default.expr sub e
      in
      (* a module constrained, packed or passed to a functor: its values
         stand for the target's, or are used outright when the target
         cannot be read *)
      let coerce target (source : Typedtree.module_expr) cc =
        match Option.bind target (fun (sc, m) -> scrape env sc m) with
        | Some target -> link env union target (here, source.mod_type)
        | None ->
            coerced env
              (fun d -> refs := (d, u) :: !refs)
              (here, source.mod_type) cc
      in
      let module_expr sub (me : Typedtree.module_expr) =
        (match me.mod_desc with
        | Tmod_constraint (inner, m, _, cc) -> coerce (Some (here, m)) inner cc
        | Tmod_apply (f, arg, cc) -> (
            match scrape env here f.mod_type with
            | Some (sc, Mty_functor (Named (_, p), _)) ->
                coerce (Some (sc, p)) arg cc
            | _ -> coerce None arg cc)
        | _ -> ());
        default.module_expr sub me
      in
      let it = { default with structure; expr; module_expr } in
      Option.iter (it.structure it) u.impl)
    all;
  let users = Hashtbl.create 4096 and owners = Hashtbl.create 4096 in
  List.iter (fun (d, u) -> Hashtbl.add users (find d) u) !refs;
  Hashtbl.iter
    (fun d _ -> Option.iter (Hashtbl.add owners (find d)) (owner d.uid))
    parent;
  let passed_tbl = Hashtbl.create 256 in
  List.iter (fun (d, l) -> Hashtbl.replace passed_tbl (find d, l) ()) !passed;
  (* a label passed to an alias is passed to what it aliases *)
  let rec forward () =
    let grew = ref false in
    Hashtbl.iter
      (fun (d, l) () ->
        List.iter
          (fun (a, t) ->
            if find a = d && not (Hashtbl.mem passed_tbl (find t, l)) then (
              Hashtbl.replace passed_tbl (find t, l) ();
              grew := true))
          !forwards)
      (Hashtbl.copy passed_tbl);
    if !grew then forward ()
  in
  forward ();
  (* one finding per declaration, under the first path read *)
  let reported = Hashtbl.create 256 in
  List.concat_map
    (fun u ->
      exports_of u
      |> List.filter (fun e ->
             let root = find e.decl in
             (not (Hashtbl.mem reported root))
             && (Hashtbl.add reported root (); true))
      |> List.concat_map (fun e ->
             let root = find e.decl in
             let own =
               e.home
               :: (Option.to_list (owner root.uid)
                  @ Hashtbl.find_all owners root)
             in
             let callers = Hashtbl.find_all users root in
             let outside =
               List.filter (fun r -> not (List.mem r.name own)) callers
             in
             let use =
               if callers = [] then [ Unused e ]
               else if outside = [] then if e.in_mli then [ Local e ] else []
               else if List.for_all (under benchmark) outside then
                 [ Benchmark_only e ]
               else []
             in
             use
             @ List.filter_map
                 (fun l ->
                   if Hashtbl.mem passed_tbl (root, l) then None
                   else Some (Unpassed (e, l)))
                 e.labels))
    export_units

(* {1 The allowlist} *)

let read_allow file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.trim (String.sub line i (String.length line - i)) )
           | None -> Some (line, ""))

(* {1 Tests} *)

let fixture () =
  assert (Exports_fixture.used 1 = Exports_fixture.scaled 2);
  assert (Exports_fixture.offset ~by:2 1 = 3);
  let findings tests =
    analyse ~exports:[ "./exports_fixture" ] ~benchmark:[] ~tests [ "." ]
    |> List.map key |> List.sort compare
  in
  (* [offset ~by] is passed above, from this test unit only *)
  Alcotest.(check (list string))
    "the unused value and the optional parameters no non-test unit passes"
    [
      "Exports_fixture.offset?by";
      "Exports_fixture.scaled?by";
      "Exports_fixture.unused";
    ]
    (findings [ "." ]);
  Alcotest.(check (list string))
    "a label passed outside the test roots counts"
    [ "Exports_fixture.scaled?by"; "Exports_fixture.unused" ]
    (findings [])

let repo () =
  (* the test runs in _build/default/test *)
  let root d = Filename.concat ".." d in
  let findings =
    analyse ~exports:[ root "lib" ] ~benchmark:[ root "benchmark" ]
      ~tests:[ root "test"; root "examples" ]
      (List.map root [ "lib"; "bin"; "test"; "examples"; "benchmark" ])
  in
  let allow = read_allow "exports.allow" in
  List.iter
    (fun (k, reason) ->
      if reason = "" then Alcotest.failf "exports.allow: %s has no reason" k)
    allow;
  Alcotest.(check (list string))
    "findings missing from exports.allow" []
    (List.filter_map
       (fun f ->
         if List.mem_assoc (key f) allow then None
         else Some (Printf.sprintf "%s (%s)" (key f) (describe f)))
       findings);
  Alcotest.(check (list string))
    "exports.allow entries no longer found" []
    (List.filter_map
       (fun (k, _) ->
         if List.exists (fun f -> key f = k) findings then None else Some k)
       allow)

let () =
  Alcotest.run "exports"
    [
      ( "dead exports",
        [
          Alcotest.test_case "fixture is flagged" `Quick fixture;
          Alcotest.test_case "lib exports have callers" `Quick repo;
        ] );
    ]
