(* Durable storage: snapshot/journal roundtrips, sessions, crash
   recovery, verification on load. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Persist = Seed_core.Persist
module History = Seed_core.History
module Db_state = Seed_core.Db_state
module Item = Seed_core.Item
module Store = Seed_storage.Store
module Faulty = Seed_storage.Faulty_io
module R = Seed_storage.Codec.Reader

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seed_persist_%d_%d" (Unix.getpid ()) !counter)

let populated () =
  let db = fresh_db () in
  let alarms = ok (DB.create_object db ~cls:"Data" ~name:"Alarms" ()) in
  let handler = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let text = ok (DB.create_sub_object db ~parent:alarms ~role:"Text" ()) in
  let _body =
    ok (DB.create_sub_object db ~parent:text ~role:"Body" ~value:(Value.String "b") ())
  in
  let _rel = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ alarms; handler ] ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db alarms ~to_:"OutputData");
  let _v2 = ok (DB.create_version db) in
  let p = ok (DB.create_object db ~cls:"Data" ~name:"Template" ~pattern:true ()) in
  let _ = ok (DB.create_sub_object db ~parent:p ~role:"Description" ~value:(Value.String "std") ()) in
  check_ok "inherit" (DB.inherit_pattern db ~pattern:p ~inheritor:alarms);
  (db, alarms, v1)

let same_shape db db2 =
  Alcotest.(check int) "objects" (DB.object_count db) (DB.object_count db2);
  Alcotest.(check int) "versions" (List.length (DB.versions db))
    (List.length (DB.versions db2));
  Alcotest.(check bool) "base" true (DB.current_base db = DB.current_base db2)

let test_encode_decode_roundtrip () =
  let db, alarms, v1 = populated () in
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  same_shape db db2;
  let alarms2 = Option.get (DB.find_object db2 "Alarms") in
  Alcotest.(check (option string)) "class survives" (Some "OutputData")
    (DB.class_of db2 alarms2);
  (* version views survive *)
  ok (DB.select_version db2 (Some v1));
  Alcotest.(check (option string)) "old class" (Some "Data") (DB.class_of db2 alarms2);
  ok (DB.select_version db2 None);
  (* pattern inheritance survives *)
  let p2 = Option.get (DB.find_pattern db2 "Template") in
  Alcotest.(check bool) "inheritors" true (DB.inheritors db2 p2 <> []);
  (* identity is preserved *)
  Alcotest.(check bool) "ids stable" true (Ident.equal alarms alarms2);
  (* dirty state survives: the inherit was not snapshotted *)
  Alcotest.(check bool) "still dirty" true (DB.is_dirty db2)

let test_save_load () =
  let dir = tmp_dir () in
  let db, _, _ = populated () in
  check_ok "save" (Persist.save db ~dir);
  let db2 = ok (Persist.load ~dir ()) in
  same_shape db db2

let test_load_missing () =
  check_err "missing dir content"
    (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.load ~dir:(tmp_dir ()) ())

let test_session_flush_and_reopen () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  check_ok "flush1" (Persist.Session.flush s);
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  check_ok "flush2" (Persist.Session.flush s);
  check_ok "value" (Result.map (fun _ -> ())
    (DB.create_sub_object db ~parent:a ~role:"Description" ~value:(Value.String "d") ()));
  check_ok "flush3" (Persist.Session.flush s);
  Persist.Session.close s;
  (* reopen: journal replay rebuilds everything *)
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check int) "objects" 2 (DB.object_count db2);
  Alcotest.(check bool) "sub-object too" true
    (DB.resolve db2 "A.Description" <> None);
  Persist.Session.close s2

let test_session_flush_writes_only_changes () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  for i = 1 to 10 do
    ignore (ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ()))
  done;
  check_ok "flush" (Persist.Session.flush s);
  let after_first = Persist.Session.journal_records s in
  (* one more object -> one more item record (plus one meta record) *)
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"Extra" ()) in
  check_ok "flush2" (Persist.Session.flush s);
  let after_second = Persist.Session.journal_records s in
  Alcotest.(check int) "incremental" 2 (after_second - after_first);
  (* no changes -> no records *)
  check_ok "noop flush" (Persist.Session.flush s);
  Alcotest.(check int) "nothing written" after_second (Persist.Session.journal_records s);
  Persist.Session.close s

let test_session_compact () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  for i = 1 to 5 do
    ignore (ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "O%d" i) ()))
  done;
  check_ok "flush" (Persist.Session.flush s);
  check_ok "compact" (Persist.Session.compact s);
  Alcotest.(check int) "journal empty" 0 (Persist.Session.journal_records s);
  Persist.Session.close s;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  Alcotest.(check int) "snapshot has everything" 5
    (DB.object_count (Persist.Session.db s2));
  Persist.Session.close s2

let test_session_requires_schema_for_fresh_dir () =
  check_err "no schema"
    (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.Session.open_ ~dir:(tmp_dir ()) ())

let test_session_survives_torn_journal_tail () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  check_ok "flush" (Persist.Session.flush s);
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  (* tear the journal tail: B's records get cut *)
  let path = Filename.concat dir "journal.log" in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 5);
  Unix.close fd;
  let s2 = ok (Persist.Session.open_ ~dir ()) in
  let db2 = Persist.Session.db s2 in
  Alcotest.(check bool) "A recovered" true (DB.find_object db2 "A" <> None);
  Persist.Session.close s2

let test_versions_survive_roundtrip () =
  let dir = tmp_dir () in
  let db, _, v1 = populated () in
  (* branch before saving *)
  ok (DB.begin_alternative db ~from_:v1 ~force:true ());
  let alarms = Option.get (DB.find_object db "Alarms") in
  ok (DB.reclassify db alarms ~to_:"InputData");
  let alt = ok (DB.create_version db) in
  check_ok "save" (Persist.save db ~dir);
  let db2 = ok (Persist.load ~dir ()) in
  Alcotest.(check string) "branch label kept" "1.1" (Version_id.to_string alt);
  ok (DB.select_version db2 (Some alt));
  let a2 = Option.get (DB.find_object db2 "Alarms") in
  Alcotest.(check (option string)) "branch content" (Some "InputData")
    (DB.class_of db2 a2);
  ok (DB.select_version db2 None);
  (* new versions continue the numbering after reload *)
  ok (DB.reclassify db2 a2 ~to_:"Data");
  let next = ok (DB.create_version db2) in
  Alcotest.(check string) "numbering continues" "1.1.1" (Version_id.to_string next)

let test_history_survives_roundtrip () =
  let db, alarms, _ = populated () in
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  let h1 = List.length (History.stamps_of db alarms) in
  let h2 = List.length (History.stamps_of db2 alarms) in
  Alcotest.(check int) "stamps preserved" h1 h2

let test_decode_rejects_garbage () =
  check_err "garbage" (function Seed_error.Corrupt _ -> true | _ -> false)
    (Persist.decode_db "not a database");
  check_err "empty" (function Seed_error.Corrupt _ -> true | _ -> false)
    (Persist.decode_db "")

let test_schema_revisions_roundtrip () =
  let db = fresh_db () in
  let classes, assocs = Spades_tool.Spec_model.schema_defs () in
  let classes' = classes @ [ Class_def.v ~super:"Thing" [ "Module" ] ] in
  check_ok "evolve" (DB.update_schema db (Schema.of_defs_exn classes' assocs));
  let db2 = ok (Persist.decode_db (Persist.encode_db db)) in
  Alcotest.(check int) "revision" (Schema.revision (DB.schema db))
    (Schema.revision (DB.schema db2));
  Alcotest.(check bool) "module class there" true
    (Schema.find_class (DB.schema db2) "Module" <> None);
  (* both revisions retrievable *)
  Alcotest.(check bool) "old revision kept" true
    (Seed_core.Db_state.schema_at_revision (DB.raw db2) 1 <> None)

(* ------------------------------------------------------------------ *)
(* What a flush writes                                                  *)
(* ------------------------------------------------------------------ *)

(* The reference for a flush's item records: a full scan of the item
   table against the table as of the previous flush, selecting every
   item whose current state is not physically the flushed one or whose
   history size differs, in id order. *)
let full_scan_changed ~prev db =
  Db_state.fold_items (DB.raw db) ~init:[] ~f:(fun acc (it : Item.t) ->
      let changed =
        match Ident.Map.find_opt it.Item.id prev with
        | None -> true
        | Some (old : Item.t) ->
          (not (old.Item.current == it.Item.current))
          || Item.history_size old <> Item.history_size it
      in
      if changed then it.Item.id :: acc else acc)
  |> List.sort Ident.compare

(* The item ids of the last [n] journal records in [dir], in order; meta
   records (tag 0) are skipped. *)
let last_record_ids dir n =
  let store, _, records, _ = ok (Store.open_dir dir) in
  Store.close store;
  let len = List.length records in
  List.filteri (fun i _ -> i >= len - n) records
  |> List.filter_map (fun payload ->
         let r = R.of_string payload in
         match ok (R.u8 r) with
         | 1 -> Some (Ident.of_int (ok (R.varint r)))
         | _ -> None)

let reopen_equal what dir db =
  let db2 = ok (Persist.load ~dir ()) in
  Alcotest.(check bool) (what ^ ": reopened database equals memory") true
    (String.equal (Persist.encode_db db) (Persist.encode_db db2));
  db2

let test_flush_refused_in_transaction () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  check_ok "flush" (Persist.Session.flush s);
  let before = Persist.Session.journal_records s in
  let result =
    DB.with_transaction db (fun () ->
        let open Seed_error in
        let* _ = DB.create_object db ~cls:"Data" ~name:"Inside" () in
        let* () =
          match Persist.Session.flush s with
          | Error (Invalid_operation _) -> Ok ()
          | Ok () -> Alcotest.fail "flush inside a transaction accepted"
          | Error e -> Error e
        in
        check_err "compact"
          (function Invalid_operation _ -> true | _ -> false)
          (Persist.Session.compact s);
        fail (Invalid_operation "roll back"))
  in
  check_err "rolled back"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    result;
  Alcotest.(check int) "nothing appended" before
    (Persist.Session.journal_records s);
  check_ok "flush after rollback" (Persist.Session.flush s);
  Persist.Session.close s;
  let db2 = ok (Persist.load ~dir ()) in
  Alcotest.(check bool) "rolled-back object absent" true
    (DB.find_object db2 "Inside" = None)

let test_flush_retry_after_failed_append () =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ = ok (DB.create_object db ~cls:"Action" ~name:"B" ()) in
  check_ok "flush" (Persist.Session.flush s);
  Persist.Session.close s;
  (* a clean reopen writes nothing, so the session's next write — the
     flush's journal append — is the 0th and hits a full disk *)
  let f = Faulty.create ~enospc_write:0 () in
  let s = ok (Persist.Session.open_ ~dir ~io:(Faulty.io f) ()) in
  let db = Persist.Session.db s in
  let prev = Db_state.items (DB.raw db) in
  let _ =
    ok (DB.create_sub_object db ~parent:a ~role:"Description"
          ~value:(Value.String "retried") ())
  in
  ok (DB.rename_object db a "A2");
  let expected = full_scan_changed ~prev db in
  Alcotest.(check bool) "something to write" true (expected <> []);
  let before = Persist.Session.journal_records s in
  check_err "disk full"
    (function Seed_error.Io_error _ -> true | _ -> false)
    (Persist.Session.flush s);
  Alcotest.(check int) "failed append counts nothing" before
    (Persist.Session.journal_records s);
  (* the faults are spent: the retry must write the same records *)
  check_ok "retry" (Persist.Session.flush s);
  let written = Persist.Session.journal_records s - before in
  Persist.Session.close s;
  Alcotest.(check (list string)) "retry wrote the changed items"
    (List.map Ident.to_string expected)
    (List.map Ident.to_string (last_record_ids dir written));
  let db2 = reopen_equal "retry" dir db in
  Alcotest.(check bool) "rename durable" true (DB.find_object db2 "A2" <> None);
  match DB.resolve db2 "A2.Description" with
  | Some d ->
    Alcotest.(check bool) "value durable" true
      (DB.get_value db2 d = Some (Value.String "retried"))
  | None -> Alcotest.fail "sub-object lost"

(* ------------------------------------------------------------------ *)
(* Touched-set flush against a full scan (property)                     *)
(* ------------------------------------------------------------------ *)

type op =
  | Create of int * int
  | Describe of int * string
  | Describe_bad of int  (* wrong value type: rolled back *)
  | Rename of int * int
  | Reclassify of int * int
  | Delete of int
  | Relate of int * int
  | Txn of op list * bool  (* [true] commits, [false] rolls back *)
  | Create_version
  | Begin_alternative of int
  | Delete_version of int
  | Update_schema of bool  (* [false] drops a class: may fail *)
  | Compact

let classes = [| "Data"; "InputData"; "OutputData"; "Action"; "Thing" |]
let name_of i = Printf.sprintf "N%d" i

let rec show_op = function
  | Create (n, c) -> Printf.sprintf "Create(%s,%s)" (name_of n) classes.(c)
  | Describe (n, v) -> Printf.sprintf "Describe(%s,%S)" (name_of n) v
  | Describe_bad n -> Printf.sprintf "Describe_bad(%s)" (name_of n)
  | Rename (n, m) -> Printf.sprintf "Rename(%s,%s)" (name_of n) (name_of m)
  | Reclassify (n, c) -> Printf.sprintf "Reclassify(%s,%s)" (name_of n) classes.(c)
  | Delete n -> Printf.sprintf "Delete(%s)" (name_of n)
  | Relate (n, m) -> Printf.sprintf "Relate(%s,%s)" (name_of n) (name_of m)
  | Txn (ops, commit) ->
    Printf.sprintf "Txn([%s],%b)" (String.concat ";" (List.map show_op ops)) commit
  | Create_version -> "Create_version"
  | Begin_alternative i -> Printf.sprintf "Begin_alternative(%d)" i
  | Delete_version i -> Printf.sprintf "Delete_version(%d)" i
  | Update_schema b -> Printf.sprintf "Update_schema(%b)" b
  | Compact -> "Compact"

let gen_op =
  let open QCheck2.Gen in
  let name = int_bound 3 and cls = int_bound (Array.length classes - 1) in
  let data_op =
    frequency
      [
        (4, map2 (fun n c -> Create (n, c)) name cls);
        (4, map2 (fun n v -> Describe (n, v)) name (oneofl [ "x"; "y"; "zz" ]));
        (1, map (fun n -> Describe_bad n) name);
        (2, map2 (fun n m -> Rename (n, m)) name name);
        (2, map2 (fun n c -> Reclassify (n, c)) name cls);
        (2, map (fun n -> Delete n) name);
        (3, map2 (fun n m -> Relate (n, m)) name name);
      ]
  in
  frequency
    [
      (12, data_op);
      (2, map2 (fun ops c -> Txn (ops, c)) (list_size (int_range 1 4) data_op) bool);
      (2, pure Create_version);
      (1, map (fun i -> Begin_alternative i) (int_bound 4));
      (2, map (fun i -> Delete_version i) (int_bound 4));
      (1, map (fun b -> Update_schema b) bool);
      (1, pure Compact);
    ]

let rec apply_op s op =
  let db = Persist.Session.db s in
  let obj n = DB.find_object db (name_of n) in
  let nth keep i =
    match List.filter keep (DB.versions db) with
    | [] -> None
    | vs -> Some (List.nth vs (i mod List.length vs)).Seed_core.Versioning.vid
  in
  let ignore_result r = ignore (r : (unit, Seed_error.t) result) in
  match op with
  | Create (n, c) ->
    ignore_result
      (Result.map ignore (DB.create_object db ~cls:classes.(c) ~name:(name_of n) ()))
  | Describe (n, v) -> (
    match obj n with
    | None -> ()
    | Some id -> (
      match DB.resolve db (name_of n ^ ".Description") with
      | Some d -> ignore_result (DB.set_value db d (Some (Value.String v)))
      | None ->
        ignore_result
          (Result.map ignore
             (DB.create_sub_object db ~parent:id ~role:"Description"
                ~value:(Value.String v) ()))))
  | Describe_bad n -> (
    match DB.resolve db (name_of n ^ ".Description") with
    | Some d -> ignore_result (DB.set_value db d (Some (Value.Int 1)))
    | None -> ())
  | Rename (n, m) -> (
    match obj n with
    | Some id -> ignore_result (DB.rename_object db id (name_of m))
    | None -> ())
  | Reclassify (n, c) -> (
    match obj n with
    | Some id -> ignore_result (DB.reclassify db id ~to_:classes.(c))
    | None -> ())
  | Delete n -> (
    match obj n with Some id -> ignore_result (DB.delete db id) | None -> ())
  | Relate (n, m) -> (
    match (obj n, obj m) with
    | Some a, Some b ->
      ignore_result
        (Result.map ignore (DB.create_relationship db ~assoc:"Access" ~endpoints:[ a; b ] ()))
    | _ -> ())
  | Txn (ops, commit) ->
    let before = Persist.Session.journal_records s in
    ignore_result
      (DB.with_transaction db (fun () ->
           List.iter (apply_op s) ops;
           check_err "flush inside a transaction"
             (function Seed_error.Invalid_operation _ -> true | _ -> false)
             (Persist.Session.flush s);
           if commit then Ok () else Error (Seed_error.Invalid_operation "abort")));
    Alcotest.(check int) "nothing appended inside a transaction" before
      (Persist.Session.journal_records s)
  | Create_version -> ignore_result (Result.map ignore (DB.create_version db))
  | Begin_alternative i -> (
    match nth (fun _ -> true) i with
    | Some v -> ignore_result (DB.begin_alternative db ~from_:v ~force:true ())
    | None -> ())
  | Delete_version i -> (
    (* leaves other than the current base: the deletable ones *)
    let deletable (n : Seed_core.Versioning.node) =
      n.Seed_core.Versioning.children_rev = []
      && Some n.Seed_core.Versioning.vid <> DB.current_base db
    in
    match nth deletable i with
    | Some v -> ignore_result (DB.delete_version db v)
    | None -> ())
  | Update_schema keep ->
    let classes, assocs = Spades_tool.Spec_model.schema_defs () in
    let classes =
      if keep then classes @ [ Class_def.v ~super:"Thing" [ "Module" ] ]
      else
        List.filter
          (fun (c : Class_def.t) -> c.Class_def.path <> [ "InputData" ])
          classes
    in
    let assocs =
      if keep then assocs
      else List.filter (fun (a : Assoc_def.t) -> a.Assoc_def.name <> "Read") assocs
    in
    ignore_result (DB.update_schema db (Schema.of_defs_exn classes assocs))
  | Compact -> check_ok "compact" (Persist.Session.compact s)

(* Run [ops] with a flush after each step; after each flush, the new
   journal records must hold exactly the items the full scan selects,
   and reopening the directory must give the in-memory database. *)
let flush_matches_full_scan ops =
  let dir = tmp_dir () in
  let s = ok (Persist.Session.open_ ~dir ~schema:(fig3_schema ()) ()) in
  let db = Persist.Session.db s in
  let prev = ref (Db_state.items (DB.raw db)) in
  List.iteri
    (fun step op ->
      let what = Printf.sprintf "step %d %s" step (show_op op) in
      apply_op s op;
      if op = Compact then prev := Db_state.items (DB.raw db);
      let expected = full_scan_changed ~prev:!prev db in
      let before = Persist.Session.journal_records s in
      check_ok what (Persist.Session.flush s);
      let written = Persist.Session.journal_records s - before in
      Alcotest.(check (list string)) (what ^ ": records = full scan")
        (List.map Ident.to_string expected)
        (List.map Ident.to_string (last_record_ids dir written));
      prev := Db_state.items (DB.raw db);
      ignore (reopen_equal what dir db : DB.t))
    ops;
  Persist.Session.close s;
  true

(* Failing seeds of the property, kept as fixed cases. *)
let regressions =
  [
    (* branching into a version whose class a later schema dropped left
       a current state that reopening refused *)
    [ Create (1, 1); Create_version; Reclassify (1, 0); Update_schema false;
      Begin_alternative 0 ];
  ]

let test_flush_regressions () =
  List.iter (fun ops -> ignore (flush_matches_full_scan ops : bool)) regressions

let prop_flush_matches_full_scan =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"touched flush = full scan"
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck2.Gen.(list_size (int_range 1 40) gen_op)
       flush_matches_full_scan)

let () =
  Alcotest.run "persist"
    [
      ( "roundtrip",
        [
          tc "encode/decode" test_encode_decode_roundtrip;
          tc "save/load" test_save_load;
          tc "missing" test_load_missing;
          tc "versions & branches" test_versions_survive_roundtrip;
          tc "history stamps" test_history_survives_roundtrip;
          tc "schema revisions" test_schema_revisions_roundtrip;
          tc "garbage rejected" test_decode_rejects_garbage;
        ] );
      ( "session",
        [
          tc "flush and reopen" test_session_flush_and_reopen;
          tc "incremental flush" test_session_flush_writes_only_changes;
          tc "compaction" test_session_compact;
          tc "fresh dir needs schema" test_session_requires_schema_for_fresh_dir;
          tc "torn tail recovery" test_session_survives_torn_journal_tail;
          tc "flush refused in a transaction" test_flush_refused_in_transaction;
          tc "flush retry after failed append" test_flush_retry_after_failed_append;
          tc "touched flush regressions" test_flush_regressions;
          prop_flush_matches_full_scan;
        ] );
    ]
