open Seed_schema
open Helpers

(* ------------------------------------------------------------------ *)
(* Cardinality                                                          *)
(* ------------------------------------------------------------------ *)

let test_card_constructors () =
  Alcotest.(check string) "any" "0..*" (Cardinality.to_string Cardinality.any);
  Alcotest.(check string) "one" "1..1" (Cardinality.to_string Cardinality.one);
  Alcotest.(check string) "opt" "0..1" (Cardinality.to_string Cardinality.opt);
  Alcotest.(check string) "between" "2..5"
    (Cardinality.to_string (Cardinality.between 2 5));
  Alcotest.(check string) "at_least" "3..*"
    (Cardinality.to_string (Cardinality.at_least 3))

let test_card_bounds () =
  let c = Cardinality.between 1 16 in
  Alcotest.(check bool) "within" true (Cardinality.within_max c 16);
  Alcotest.(check bool) "over" false (Cardinality.within_max c 17);
  Alcotest.(check bool) "min met" true (Cardinality.meets_min c 1);
  Alcotest.(check bool) "min unmet" false (Cardinality.meets_min c 0);
  Alcotest.(check bool) "unbounded" true
    (Cardinality.within_max Cardinality.any max_int)

let test_card_parse () =
  Alcotest.(check bool) "0..16" true
    (Cardinality.equal (ok (Cardinality.of_string "0..16")) (Cardinality.between 0 16));
  Alcotest.(check bool) "1..*" true
    (Cardinality.equal (ok (Cardinality.of_string "1..*")) (Cardinality.at_least 1));
  List.iter
    (fun s -> check_err s (fun _ -> true) (Cardinality.of_string s))
    [ ""; "x"; "1"; "1.."; "..2"; "2..1"; "-1..2"; "1..x" ]

let test_card_invalid () =
  Alcotest.check_raises "neg min" (Invalid_argument "Cardinality.make: negative minimum")
    (fun () -> ignore (Cardinality.make (-1) None));
  Alcotest.check_raises "max<min" (Invalid_argument "Cardinality.make: max < min")
    (fun () -> ignore (Cardinality.make 3 (Some 2)))

(* ------------------------------------------------------------------ *)
(* Values and value types                                               *)
(* ------------------------------------------------------------------ *)

let test_value_type_roundtrip () =
  List.iter
    (fun t ->
      let s = Value_type.to_string t in
      Alcotest.(check bool) s true (Value_type.equal t (ok (Value_type.of_string s))))
    [
      Value_type.String;
      Value_type.Int;
      Value_type.Float;
      Value_type.Bool;
      Value_type.Date;
      Value_type.Enum [ "abort"; "repeat" ];
    ]

let test_value_type_bad () =
  List.iter
    (fun s -> check_err s (fun _ -> true) (Value_type.of_string s))
    [ "string"; ""; "ENUM()"; "ENUM(a,,b)"; "ENUM(a" ]

let test_value_check () =
  check_ok "string" (Value.check Value_type.String (Value.String "x"));
  check_ok "int" (Value.check Value_type.Int (Value.Int 3));
  check_ok "enum member" (Value.check (Value_type.Enum [ "a"; "b" ]) (Value.Enum "a"));
  check_err "enum non-member" is_type
    (Value.check (Value_type.Enum [ "a" ]) (Value.Enum "z"));
  check_err "wrong type" is_type (Value.check Value_type.Int (Value.String "x"));
  check_ok "date" (Value.check Value_type.Date (Value.date 1986 2 5))

let test_value_date_validation () =
  Alcotest.check_raises "month 13"
    (Invalid_argument "Value.date: not a calendar date: 1986-13-1") (fun () ->
      ignore (Value.date 1986 13 1));
  check_ok "feb 29 leap" (Value.check Value_type.Date (Value.date 2024 2 29));
  Alcotest.check_raises "feb 29 non-leap"
    (Invalid_argument "Value.date: not a calendar date: 2023-2-29") (fun () ->
      ignore (Value.date 2023 2 29));
  Alcotest.check_raises "feb 29 century"
    (Invalid_argument "Value.date: not a calendar date: 1900-2-29") (fun () ->
      ignore (Value.date 1900 2 29));
  check_ok "feb 29 400-year" (Value.check Value_type.Date (Value.date 2000 2 29))

let test_value_compare () =
  Alcotest.(check bool) "int lt" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  Alcotest.(check bool) "eq" true (Value.equal (Value.String "a") (Value.String "a"));
  Alcotest.(check bool) "neq types" false (Value.equal (Value.Int 1) (Value.Bool true))

(* ------------------------------------------------------------------ *)
(* Schema construction and validation                                   *)
(* ------------------------------------------------------------------ *)

let is_schema_violation = function Seed_util.Seed_error.Schema_violation _ -> true | _ -> false

let test_fig2_builds () =
  let s = fig2_schema () in
  Alcotest.(check int) "classes" 7 (List.length (Schema.classes s));
  Alcotest.(check int) "assocs" 3 (List.length (Schema.assocs s));
  Alcotest.(check int) "top-level" 2 (List.length (Schema.top_level_classes s))

let test_fig3_builds () =
  let s = fig3_schema () in
  Alcotest.(check bool) "Thing exists" true (Schema.find_class s "Thing" <> None);
  Alcotest.(check bool) "Access exists" true (Schema.find_assoc s "Access" <> None)

let test_duplicate_class () =
  let r = Schema.of_defs [ Class_def.v [ "A" ]; Class_def.v [ "A" ] ] [] in
  check_err "duplicate"
    (function Seed_util.Seed_error.Duplicate_class _ -> true | _ -> false)
    r

let test_orphan_subclass () =
  let r = Schema.of_defs [ Class_def.v [ "A"; "B" ] ] [] in
  check_err "orphan"
    (function Seed_util.Seed_error.Unknown_class _ -> true | _ -> false)
    r

let test_unknown_super () =
  let r = Schema.of_defs [ Class_def.v ~super:"Nope" [ "A" ] ] [] in
  check_err "super"
    (function
      | Seed_util.Seed_error.Unknown_class _
      | Seed_util.Seed_error.Schema_violation _ ->
        true
      | _ -> false)
    r

let test_super_cycle () =
  let r =
    Schema.of_defs
      [ Class_def.v ~super:"B" [ "A" ]; Class_def.v ~super:"A" [ "B" ] ]
      []
  in
  check_err "cycle" is_schema_violation r

let test_subclass_cannot_be_generalized () =
  let r =
    Schema.of_defs
      [ Class_def.v [ "A" ]; Class_def.v ~super:"A" [ "A"; "B" ] ]
      []
  in
  check_err "sub-class super" is_schema_violation r

let test_inherited_child_clash () =
  let r =
    Schema.of_defs
      [
        Class_def.v [ "Thing" ];
        Class_def.v ~card:Cardinality.opt [ "Thing"; "Note" ];
        Class_def.v ~super:"Thing" [ "Data" ];
        Class_def.v ~card:Cardinality.opt [ "Data"; "Note" ];
      ]
      []
  in
  check_err "clash" is_schema_violation r

let test_covering_needs_specialization () =
  let r = Schema.of_defs [ Class_def.v ~covering:true [ "A" ] ] [] in
  check_err "covering" is_schema_violation r

let test_assoc_role_targets_must_be_top_level () =
  let r =
    Schema.of_defs
      [ Class_def.v [ "A" ]; Class_def.v ~card:Cardinality.opt [ "A"; "B" ] ]
      [ Assoc_def.v "R" [ Assoc_def.role "x" "A.B"; Assoc_def.role "y" "A" ] ]
  in
  check_err "sub-class target" is_schema_violation r

let test_assoc_super_arity () =
  let r =
    Schema.of_defs
      [ Class_def.v [ "A" ] ]
      [
        Assoc_def.v "S" [ Assoc_def.role "a" "A"; Assoc_def.role "b" "A" ];
        Assoc_def.v ~super:"S" "T"
          [ Assoc_def.role "a" "A"; Assoc_def.role "b" "A"; Assoc_def.role "c" "A" ];
      ]
  in
  check_err "arity" is_schema_violation r

let test_assoc_super_role_compat () =
  let r =
    Schema.of_defs
      [ Class_def.v [ "A" ]; Class_def.v [ "B" ] ]
      [
        Assoc_def.v "S" [ Assoc_def.role "a" "A"; Assoc_def.role "b" "A" ];
        Assoc_def.v ~super:"S" "T"
          [ Assoc_def.role "a" "B"; Assoc_def.role "b" "A" ];
      ]
  in
  check_err "role target" is_schema_violation r

let test_acyclic_requires_binary () =
  let r =
    Schema.of_defs
      [ Class_def.v [ "A" ] ]
      [
        Assoc_def.v ~acyclic:true "T"
          [ Assoc_def.role "a" "A"; Assoc_def.role "b" "A"; Assoc_def.role "c" "A" ];
      ]
  in
  check_err "ternary acyclic" is_schema_violation r

let test_acyclic_requires_one_hierarchy () =
  let r =
    Schema.of_defs
      [ Class_def.v [ "A" ]; Class_def.v [ "B" ] ]
      [
        Assoc_def.v ~acyclic:true "T"
          [ Assoc_def.role "a" "A"; Assoc_def.role "b" "B" ];
      ]
  in
  check_err "two hierarchies" is_schema_violation r

let test_bad_names () =
  check_err "dotted component" is_schema_violation
    (Schema.of_defs [ Class_def.v [ "A.B" ] ] []);
  check_err "bracket" is_schema_violation
    (Schema.of_defs [ Class_def.v [ "A[" ] ] [])

let test_assoc_def_invariants () =
  Alcotest.check_raises "one role"
    (Invalid_argument "Assoc_def.v: association R needs at least 2 roles")
    (fun () -> ignore (Assoc_def.v "R" [ Assoc_def.role "a" "A" ]));
  Alcotest.check_raises "dup roles"
    (Invalid_argument "Assoc_def.v: duplicate role names in R") (fun () ->
      ignore (Assoc_def.v "R" [ Assoc_def.role "a" "A"; Assoc_def.role "a" "A" ]))

(* ------------------------------------------------------------------ *)
(* Generalization queries                                               *)
(* ------------------------------------------------------------------ *)

let test_class_supers () =
  let s = fig3_schema () in
  Alcotest.(check (list string)) "OutputData supers" [ "Data"; "Thing" ]
    (Schema.class_supers s "OutputData");
  Alcotest.(check (list string)) "Thing supers" [] (Schema.class_supers s "Thing")

let test_class_is_a () =
  let s = fig3_schema () in
  Alcotest.(check bool) "refl" true (Schema.class_is_a s ~sub:"Data" ~super:"Data");
  Alcotest.(check bool) "up" true (Schema.class_is_a s ~sub:"OutputData" ~super:"Thing");
  Alcotest.(check bool) "down" false (Schema.class_is_a s ~sub:"Thing" ~super:"Data");
  Alcotest.(check bool) "sibling" false
    (Schema.class_is_a s ~sub:"Action" ~super:"Data")

let test_class_descendants () =
  let s = fig3_schema () in
  let d = List.sort String.compare (Schema.class_descendants s "Data") in
  Alcotest.(check (list string)) "data desc" [ "InputData"; "OutputData" ] d;
  let t = List.sort String.compare (Schema.class_descendants s "Thing") in
  Alcotest.(check (list string)) "thing desc"
    [ "Action"; "Data"; "InputData"; "OutputData" ]
    t

let test_hierarchy_root () =
  let s = fig3_schema () in
  Alcotest.(check string) "root" "Thing" (Schema.class_hierarchy_root s "OutputData");
  Alcotest.(check bool) "same hierarchy" true
    (Schema.same_class_hierarchy s "InputData" "Action")

let test_assoc_generalization () =
  let s = fig3_schema () in
  Alcotest.(check (list string)) "Read supers" [ "Access" ] (Schema.assoc_supers s "Read");
  Alcotest.(check bool) "Write isa Access" true
    (Schema.assoc_is_a s ~sub:"Write" ~super:"Access");
  let d = List.sort String.compare (Schema.assoc_descendants s "Access") in
  Alcotest.(check (list string)) "Access desc" [ "Read"; "Write" ] d;
  Alcotest.(check bool) "Contained separate" false
    (Schema.same_assoc_hierarchy s "Contained" "Read")

let test_resolve_child () =
  let s = fig3_schema () in
  let d = ok (Schema.resolve_child s ~cls:"Data" ~role:"Text") in
  Alcotest.(check string) "own" "Data.Text" (Class_def.name d);
  let d = ok (Schema.resolve_child s ~cls:"Data" ~role:"Description") in
  Alcotest.(check string) "inherited" "Thing.Description" (Class_def.name d);
  let d = ok (Schema.resolve_child s ~cls:"OutputData" ~role:"Revised") in
  Alcotest.(check string) "deep inherited" "Thing.Revised" (Class_def.name d);
  let d = ok (Schema.resolve_child s ~cls:"Data.Text" ~role:"Body") in
  Alcotest.(check string) "nested" "Data.Text.Body" (Class_def.name d);
  check_err "missing"
    (function Seed_util.Seed_error.Unknown_class _ -> true | _ -> false)
    (Schema.resolve_child s ~cls:"Action" ~role:"Text")

let test_effective_children () =
  let s = fig3_schema () in
  let roles = List.map fst (Schema.effective_children s "OutputData") in
  Alcotest.(check bool) "has Text" true (List.mem "Text" roles);
  Alcotest.(check bool) "has Description" true (List.mem "Description" roles);
  Alcotest.(check bool) "has Revised" true (List.mem "Revised" roles);
  Alcotest.(check bool) "no ErrorHandling" false (List.mem "ErrorHandling" roles)

let test_participation_constraints () =
  let s = fig3_schema () in
  let names_of cls =
    List.map
      (fun ((a : Assoc_def.t), i, _) -> (a.Assoc_def.name, i))
      (Schema.participation_constraints s ~cls)
  in
  let for_input = names_of "InputData" in
  Alcotest.(check bool) "Read.from applies" true (List.mem ("Read", 0) for_input);
  Alcotest.(check bool) "Access.from applies" true (List.mem ("Access", 0) for_input);
  Alcotest.(check bool) "Write.to not applicable" false (List.mem ("Write", 0) for_input);
  let for_action = names_of "Action" in
  Alcotest.(check bool) "Access.by applies" true (List.mem ("Access", 1) for_action);
  Alcotest.(check bool) "Contained both ends" true
    (List.mem ("Contained", 0) for_action && List.mem ("Contained", 1) for_action)

let () =
  Alcotest.run "schema"
    [
      ( "cardinality",
        [
          tc "constructors" test_card_constructors;
          tc "bounds" test_card_bounds;
          tc "parse" test_card_parse;
          tc "invalid" test_card_invalid;
        ] );
      ( "values",
        [
          tc "type roundtrip" test_value_type_roundtrip;
          tc "bad types" test_value_type_bad;
          tc "check" test_value_check;
          tc "dates" test_value_date_validation;
          tc "compare" test_value_compare;
        ] );
      ( "validation",
        [
          tc "fig2 builds" test_fig2_builds;
          tc "fig3 builds" test_fig3_builds;
          tc "duplicate class" test_duplicate_class;
          tc "orphan sub-class" test_orphan_subclass;
          tc "unknown super" test_unknown_super;
          tc "generalization cycle" test_super_cycle;
          tc "sub-class generalization" test_subclass_cannot_be_generalized;
          tc "inherited child clash" test_inherited_child_clash;
          tc "covering needs specialization" test_covering_needs_specialization;
          tc "role target top-level" test_assoc_role_targets_must_be_top_level;
          tc "assoc super arity" test_assoc_super_arity;
          tc "assoc role compatibility" test_assoc_super_role_compat;
          tc "acyclic binary" test_acyclic_requires_binary;
          tc "acyclic one hierarchy" test_acyclic_requires_one_hierarchy;
          tc "bad names" test_bad_names;
          tc "assoc def invariants" test_assoc_def_invariants;
        ] );
      ( "generalization",
        [
          tc "class supers" test_class_supers;
          tc "class is_a" test_class_is_a;
          tc "descendants" test_class_descendants;
          tc "hierarchy root" test_hierarchy_root;
          tc "associations" test_assoc_generalization;
          tc "resolve child" test_resolve_child;
          tc "effective children" test_effective_children;
          tc "participation constraints" test_participation_constraints;
        ] );
    ]
