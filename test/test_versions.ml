(* Versions and alternatives: explicit snapshots, decimal classification,
   delta storage, views of old versions, alternatives, deletion, history
   navigation, schema versions (paper, §Versions). *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module History = Seed_core.History
module Item = Seed_core.Item
module View = Seed_core.View


let test_trunk_labels () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  Alcotest.(check string) "first" "1.0" (Version_id.to_string v1);
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  let v2 = ok (DB.create_version db) in
  Alcotest.(check string) "second" "2.0" (Version_id.to_string v2);
  Alcotest.(check int) "two versions" 2 (List.length (DB.versions db));
  Alcotest.(check bool) "base" true (DB.current_base db = Some v2)

let test_view_resolution_fig4 () =
  (* Fig. 4: AlarmHandler's Description changes across versions; the view
     of version n resolves to the greatest stamp <= n *)
  let db = fresh_db () in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let d =
    ok
      (DB.create_sub_object db ~parent:h ~role:"Description"
         ~value:(Value.String "Handles alarms") ())
  in
  let v1 = ok (DB.create_version db) in
  check_ok "revise"
    (DB.set_value db d (Some (Value.String "Handles alarms derived from ProcessData")));
  let v2 = ok (DB.create_version db) in
  check_ok "revise again"
    (DB.set_value db d
       (Some (Value.String "Generates alarms from process data, triggers Operator Alert")));
  (* current *)
  Alcotest.(check bool) "current" true
    (DB.get_value db d
    = Some (Value.String "Generates alarms from process data, triggers Operator Alert"));
  (* version 1.0 *)
  ok (DB.select_version db (Some v1));
  Alcotest.(check bool) "v1" true (DB.get_value db d = Some (Value.String "Handles alarms"));
  (* version 2.0 *)
  ok (DB.select_version db (Some v2));
  Alcotest.(check bool) "v2" true
    (DB.get_value db d = Some (Value.String "Handles alarms derived from ProcessData"));
  ok (DB.select_version db None)

let test_unchanged_items_resolve_through () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _v1 = ok (DB.create_version db) in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  let v2 = ok (DB.create_version db) in
  (* A was not stamped at v2 (unchanged) yet resolves in v2's view *)
  ok (DB.select_version db (Some v2));
  Alcotest.(check bool) "A visible in v2" true (DB.find_object db "A" = Some a);
  ok (DB.select_version db None)

let test_delta_storage_only_changed_items_stamped () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let b = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  let _v1 = ok (DB.create_version db) in
  check_ok "touch A" (DB.rename_object db a "A2");
  let _v2 = ok (DB.create_version db) in
  let stamps id = List.length (History.stamps_of db id) in
  Alcotest.(check int) "A has two stamps" 2 (stamps a);
  Alcotest.(check int) "B has one stamp" 1 (stamps b)

let test_items_created_later_invisible_in_old_views () =
  let db = fresh_db () in
  let _a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  let _b = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  let _v2 = ok (DB.create_version db) in
  ok (DB.select_version db (Some v1));
  Alcotest.(check (option Alcotest.reject)) "B not in v1" None (DB.find_object db "B");
  Alcotest.(check int) "one object" 1 (DB.object_count db);
  ok (DB.select_version db None)

let test_deletion_is_a_marker () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.delete db a);
  let _v2 = ok (DB.create_version db) in
  (* gone now, but still in v1's view *)
  Alcotest.(check (option Alcotest.reject)) "gone now" None (DB.find_object db "A");
  ok (DB.select_version db (Some v1));
  Alcotest.(check bool) "alive in v1" true (DB.find_object db "A" = Some a);
  ok (DB.select_version db None)

let test_updates_require_no_version_selected_semantics () =
  (* retrieval version selection does not affect updates: they go to the
     current version *)
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.select_version db (Some v1));
  check_ok "update still possible" (DB.rename_object db a "A2");
  ok (DB.select_version db None);
  Alcotest.(check bool) "applied to current" true (DB.find_object db "A2" = Some a)

let test_alternatives_branch_labels () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  let _v2 = ok (DB.create_version db) in
  (* explore an alternative from 1.0 *)
  check_ok "switch" (DB.begin_alternative db ~from_:v1 ());
  Alcotest.(check (option string)) "back to vague" (Some "Thing") (DB.class_of db a);
  ok (DB.reclassify db a ~to_:"Action");
  let alt = ok (DB.create_version db) in
  Alcotest.(check string) "branch label" "1.1" (Version_id.to_string alt);
  (* second alternative from the same base *)
  check_ok "switch again" (DB.begin_alternative db ~from_:v1 ());
  ok (DB.reclassify db a ~to_:"Data");
  let alt2 = ok (DB.create_version db) in
  Alcotest.(check string) "second branch" "1.2" (Version_id.to_string alt2);
  (* a branch of a branch *)
  check_ok "switch to 1.1" (DB.begin_alternative db ~from_:alt ());
  check_ok "tweak" (DB.rename_object db a "A2");
  let deep = ok (DB.create_version db) in
  Alcotest.(check string) "deep branch" "1.1.1" (Version_id.to_string deep)

let test_alternative_views_are_independent () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  let v2 = ok (DB.create_version db) in
  ok (DB.begin_alternative db ~from_:v1 ());
  ok (DB.reclassify db a ~to_:"Action");
  let alt = ok (DB.create_version db) in
  (* the three saved states coexist *)
  let class_at v =
    ok (DB.select_version db (Some v));
    let c = DB.class_of db a in
    ok (DB.select_version db None);
    c
  in
  Alcotest.(check (option string)) "1.0" (Some "Thing") (class_at v1);
  Alcotest.(check (option string)) "2.0" (Some "Data") (class_at v2);
  Alcotest.(check (option string)) "1.1" (Some "Action") (class_at alt)

let test_unsaved_changes_guard () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  check_err "dirty switch refused"
    (function Seed_error.Unsaved_changes _ -> true | _ -> false)
    (DB.begin_alternative db ~from_:v1 ());
  (* force discards *)
  check_ok "forced" (DB.begin_alternative db ~from_:v1 ~force:true ());
  Alcotest.(check (option string)) "discarded" (Some "Thing") (DB.class_of db a)

let test_trunk_continues_after_branching () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  let v2 = ok (DB.create_version db) in
  ok (DB.begin_alternative db ~from_:v1 ());
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"C" ()) in
  let _alt = ok (DB.create_version db) in
  (* return to the trunk head and continue it *)
  ok (DB.begin_alternative db ~from_:v2 ());
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let v3 = ok (DB.create_version db) in
  Alcotest.(check string) "trunk continues" "3.0" (Version_id.to_string v3)

let test_delete_version () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  let v2 = ok (DB.create_version db) in
  (* cannot delete the base of the current state *)
  check_err "base in use"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.delete_version db v2);
  (* cannot delete a version with descendants *)
  check_err "has children"
    (function Seed_error.Invalid_operation _ -> true | _ -> false)
    (DB.delete_version db v1);
  (* branch, then delete the abandoned trunk head *)
  ok (DB.begin_alternative db ~from_:v1 ());
  check_ok "delete leaf" (DB.delete_version db v2);
  Alcotest.(check int) "one version left" 1 (List.length (DB.versions db));
  (* stamps dropped *)
  Alcotest.(check int) "stamps dropped" 1 (List.length (History.stamps_of db a));
  check_err "cannot select deleted"
    (function Seed_error.Unknown_version _ -> true | _ -> false)
    (DB.select_version db (Some v2))

let test_history_retrieval () =
  (* "find all versions of object 'AlarmHandler', beginning with
     version 2.0" *)
  let db = fresh_db () in
  let h = ok (DB.create_object db ~cls:"Action" ~name:"AlarmHandler" ()) in
  let d = ok (DB.create_sub_object db ~parent:h ~role:"Description" ~value:(Value.String "v1") ()) in
  let _v1 = ok (DB.create_version db) in
  check_ok "2" (DB.set_value db d (Some (Value.String "v2")));
  let v2 = ok (DB.create_version db) in
  check_ok "3" (DB.set_value db d (Some (Value.String "v3")));
  let _v3 = ok (DB.create_version db) in
  let all = ok (History.versions_of_object db "AlarmHandler" ()) in
  (* the object itself was stamped only at 1.0 (unchanged after) *)
  Alcotest.(check int) "object stamps" 1 (List.length all);
  let d_all = ok (History.versions_of db d ()) in
  Alcotest.(check int) "description stamps" 3 (List.length d_all);
  let d_from2 = ok (History.versions_of db d ~from_:v2 ()) in
  Alcotest.(check int) "from 2.0" 2 (List.length d_from2);
  Alcotest.(check string) "first is 2.0" "2.0"
    (Version_id.to_string (List.hd d_from2).History.version)

let test_history_by_old_name () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"Old" ()) in
  let _v1 = ok (DB.create_version db) in
  check_ok "rename" (DB.rename_object db a "New");
  let _v2 = ok (DB.create_version db) in
  (* identity survives the rename; the historical name still finds it *)
  let entries = ok (History.versions_of_object db "Old" ()) in
  Alcotest.(check int) "two stamps" 2 (List.length entries);
  check_err "never existed"
    (function Seed_error.Unknown_object _ -> true | _ -> false)
    (History.versions_of_object db "Ghost" ())

let test_changed_between () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _b = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  let v1 = ok (DB.create_version db) in
  check_ok "touch a" (DB.rename_object db a "A2");
  let v2 = ok (DB.create_version db) in
  let changed = ok (History.changed_between db v1 v2) in
  Alcotest.(check (list string)) "only A" [ Ident.to_string a ]
    (List.map Ident.to_string changed);
  Alcotest.(check int) "self empty" 0 (List.length (ok (History.changed_between db v2 v2)))

let test_state_in_and_version_path () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  let v2 = ok (DB.create_version db) in
  (match ok (History.state_in db a v1) with
  | Some (Item.Obj o) -> Alcotest.(check string) "v1 class" "Thing" o.Item.cls
  | _ -> Alcotest.fail "expected object state");
  Alcotest.(check (list string)) "path" [ "1.0"; "2.0" ]
    (List.map Version_id.to_string (History.version_path db v2));
  ignore v2

let test_empty_snapshot_allowed () =
  let db = fresh_db () in
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _v1 = ok (DB.create_version db) in
  Alcotest.(check bool) "clean" false (DB.is_dirty db);
  let v2 = ok (DB.create_version db) in
  Alcotest.(check string) "empty snapshot still a version" "2.0"
    (Version_id.to_string v2)

let test_transition_rules () =
  (* history-sensitive consistency (the paper's open problem): forbid
     snapshots that delete objects relative to their base version *)
  let db = fresh_db () in
  DB.add_transition_rule db "no-shrink" (fun st ~base ->
      match base with
      | None -> Ok ()
      | Some b ->
        let now = List.length (View.all_objects (View.current st)) in
        let before = List.length (View.all_objects (View.at st b)) in
        if now < before then
          Error (Seed_error.Vetoed { procedure = "no-shrink"; reason = "fewer objects" })
        else Ok ());
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _v1 = ok (DB.create_version db) in
  ok (DB.delete db a);
  check_err "rule vetoes" is_vetoed (DB.create_version db);
  (* recover: add an object to compensate *)
  let _ = ok (DB.create_object db ~cls:"Data" ~name:"B" ()) in
  check_ok "rule passes" (Result.map (fun _ -> ()) (DB.create_version db))

let test_schema_versions () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  (* evolve the schema: add a class *)
  let classes, assocs = Spades_tool.Spec_model.schema_defs () in
  let classes = classes @ [ Class_def.v ~super:"Thing" [ "Module" ] ] in
  check_ok "update schema" (DB.update_schema db (Schema.of_defs_exn classes assocs));
  let _m = ok (DB.create_object db ~cls:"Module" ~name:"M" ()) in
  let v2 = ok (DB.create_version db) in
  (* old versions keep their schema revision *)
  let node_of v =
    List.find
      (fun (n : Seed_core.Versioning.node) -> Version_id.equal n.Seed_core.Versioning.vid v)
      (DB.versions db)
  in
  Alcotest.(check bool) "revisions differ" true
    ((node_of v1).Seed_core.Versioning.schema_rev
    <> (node_of v2).Seed_core.Versioning.schema_rev);
  (* the old view interprets data under the old schema *)
  let old_view = ok (DB.view_at db v1) in
  Alcotest.(check bool) "old schema has no Module" true
    (Schema.find_class (View.schema old_view) "Module" = None);
  ignore a

let test_schema_update_rejected_when_data_violates () =
  let db = fresh_db () in
  let d = ok (DB.create_object db ~cls:"Data" ~name:"D" ()) in
  let _t1 = ok (DB.create_sub_object db ~parent:d ~role:"Text" ()) in
  let _t2 = ok (DB.create_sub_object db ~parent:d ~role:"Text" ()) in
  (* shrink Text max to 1: existing data violates it *)
  let classes, assocs = Spades_tool.Spec_model.schema_defs () in
  let classes =
    List.map
      (fun (c : Class_def.t) ->
        if Class_def.name c = "Data.Text" then
          Class_def.v ~card:(Cardinality.between 0 1) [ "Data"; "Text" ]
        else c)
      classes
  in
  check_err "tightening refused" is_cardinality
    (DB.update_schema db (Schema.of_defs_exn classes assocs));
  (* the schema was left unchanged *)
  check_ok "third text under old schema"
    (Result.map (fun _ -> ()) (DB.create_sub_object db ~parent:d ~role:"Text" ()))

let test_branch_refused_when_schema_rejects_version () =
  (* a version stamped under a class that a later schema revision
     dropped cannot become the current state again *)
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"InputData" ~name:"A" ()) in
  let v1 = ok (DB.create_version db) in
  ok (DB.reclassify db a ~to_:"Data");
  let classes, assocs = Spades_tool.Spec_model.schema_defs () in
  let classes = List.filter (fun c -> Class_def.name c <> "InputData") classes in
  let assocs = List.filter (fun (x : Assoc_def.t) -> x.Assoc_def.name <> "Read") assocs in
  check_ok "drop InputData" (DB.update_schema db (Schema.of_defs_exn classes assocs));
  check_err "switch refused"
    (function Seed_error.Unknown_class _ -> true | _ -> false)
    (DB.begin_alternative db ~from_:v1 ~force:true ());
  (* nothing moved: the unsaved reclassification is still current *)
  Alcotest.(check (option string)) "class kept" (Some "Data") (DB.class_of db a);
  Alcotest.(check bool) "still dirty" true (DB.is_dirty db);
  Alcotest.(check bool) "base kept" true (DB.current_base db = Some v1)

let () =
  Alcotest.run "versions"
    [
      ( "snapshots",
        [
          tc "trunk labels" test_trunk_labels;
          tc "fig 4 view resolution" test_view_resolution_fig4;
          tc "unchanged items resolve" test_unchanged_items_resolve_through;
          tc "delta storage" test_delta_storage_only_changed_items_stamped;
          tc "later items invisible" test_items_created_later_invisible_in_old_views;
          tc "deletion markers" test_deletion_is_a_marker;
          tc "updates go to current" test_updates_require_no_version_selected_semantics;
          tc "empty snapshots" test_empty_snapshot_allowed;
        ] );
      ( "alternatives",
        [
          tc "branch labels" test_alternatives_branch_labels;
          tc "independent views" test_alternative_views_are_independent;
          tc "unsaved-changes guard" test_unsaved_changes_guard;
          tc "trunk continues" test_trunk_continues_after_branching;
        ] );
      ( "deletion", [ tc "version deletion" test_delete_version ] );
      ( "history",
        [
          tc "versions of an object" test_history_retrieval;
          tc "historical names" test_history_by_old_name;
          tc "changed between" test_changed_between;
          tc "state_in / path" test_state_in_and_version_path;
        ] );
      ( "rules", [ tc "history-sensitive rules" test_transition_rules ] );
      ( "schema versions",
        [
          tc "schema evolves with versions" test_schema_versions;
          tc "incompatible schema refused" test_schema_update_rejected_when_data_violates;
          tc "branch the schema rejects refused"
            test_branch_refused_when_schema_rejects_version;
        ] );
    ]
