(* Schema evolution and schema versions: "when the schema is modified,
   the interpretation of versions that were created before this
   modification becomes a problem; therefore, we must generate schema
   versions, too" (paper, §Versions).

   Run with: dune exec examples/schema_evolution.exe *)

open Seed_util
open Seed_schema
module DB = Seed_core.Database
module View = Seed_core.View

let ok = Seed_error.ok_exn

let v1_text =
  {|
// revision 1: documents and people
class Document {
  Title : STRING [0..1]
}
class Person

assoc Wrote (author : Person, what : Document)
|}

let v2_text =
  {|
// revision 2: documents gained tags and review status; people are
// specialized; reviews arrived
class Document {
  Title : STRING [0..1]
  Tags : STRING [0..8]
}
class Person covering
class Author isa Person
class Reviewer isa Person

assoc Wrote (author : Person, what : Document)
assoc Reviewed (reviewer : Reviewer, what : Document) {
  Verdict : ENUM(accept,reject,revise) required
}
|}

let () =
  let schema_v1 = ok (Schema_text.parse v1_text) in
  let schema_v2 = ok (Schema_text.parse v2_text) in

  (* live migration *)
  let db = DB.create schema_v1 in
  let paper = ok (DB.create_object db ~cls:"Document" ~name:"SEED-Paper" ()) in
  let martin = ok (DB.create_object db ~cls:"Person" ~name:"Martin" ()) in
  let _ = ok (DB.create_relationship db ~assoc:"Wrote" ~endpoints:[ martin; paper ] ()) in
  let old_version = ok (DB.create_version db) in
  Fmt.pr "version %a saved under schema revision 1@." Version_id.pp old_version;

  (match DB.update_schema db schema_v2 with
  | Ok () -> Fmt.pr "schema updated to revision %d@." (Schema.revision (DB.schema db))
  | Error e -> Fmt.pr "schema update refused: %s@." (Seed_error.to_string e));

  (* the new capabilities exist immediately *)
  ok (DB.reclassify db martin ~to_:"Author");
  let reviewer = ok (DB.create_object db ~cls:"Reviewer" ~name:"Ludewig" ()) in
  let review =
    ok (DB.create_relationship db ~assoc:"Reviewed" ~endpoints:[ reviewer; paper ] ())
  in
  ok (DB.set_rel_attr db review "Verdict" (Some (Value.Enum "accept")));
  let _ = ok (DB.create_sub_object db ~parent:paper ~role:"Tags" ~value:(Value.String "dbms") ()) in
  let new_version = ok (DB.create_version db) in
  Fmt.pr "version %a saved under schema revision 2@.@." Version_id.pp new_version;

  (* old versions keep their old schema *)
  let old_view = ok (DB.view_at db old_version) in
  Fmt.pr "version %a sees schema revision %d (has Reviewer: %b)@."
    Version_id.pp old_version
    (Schema.revision (View.schema old_view))
    (Schema.find_class (View.schema old_view) "Reviewer" <> None);
  let new_view = ok (DB.view_at db new_version) in
  Fmt.pr "version %a sees schema revision %d (has Reviewer: %b)@."
    Version_id.pp new_version
    (Schema.revision (View.schema new_view))
    (Schema.find_class (View.schema new_view) "Reviewer" <> None);

  (* an incompatible change is refused while data depends on it *)
  Fmt.pr "@.-- attempting an incompatible change --@.";
  let shrunk =
    ok
      (Schema_text.parse
         {|
class Document {
  Title : STRING [0..1]
  Tags : STRING [0..0]
}
class Person covering
class Author isa Person
class Reviewer isa Person
assoc Wrote (author : Person, what : Document)
assoc Reviewed (reviewer : Reviewer, what : Document) {
  Verdict : ENUM(accept,reject,revise) required
}
|})
  in
  (match DB.update_schema db shrunk with
  | Ok () -> Fmt.pr "unexpectedly accepted@."
  | Error e -> Fmt.pr "refused, as it must be: %s@." (Seed_error.to_string e));
  Fmt.pr "schema still at revision %d@." (Schema.revision (DB.schema db))
