(* Trigram index / scan equivalence for containment search.

   [Query.contains]/[Query.matches] answer from the trigram positional
   index; their one obligation is to return exactly what re-testing the
   predicate over a naive item-table scan returns — after any operation
   sequence (text creates, updates, clears, deletes, re-classification,
   transaction rollback, branch switches), on current and on version
   views, and across an encode/decode reopen. A second invariant pins
   the maintenance itself: the incrementally maintained index must stay
   structurally equal to a wholesale rebuild from the live states. *)

open Seed_util
open Seed_schema
open Helpers
module DB = Seed_core.Database
module Db_state = Seed_core.Db_state
module Persist = Seed_core.Persist
module View = Seed_core.View
module Item = Seed_core.Item
module Q = Seed_core.Query
module Text_index = Seed_core.Text_index

(* ------------------------------------------------------------------ *)
(* Symbolic operations                                                  *)
(* ------------------------------------------------------------------ *)

(* Texts share trigrams aggressively ("recovery", "recover", repeated
   letters) so posting lists overlap and positional verification has
   false candidates to reject. Short and empty strings ride along. *)
let texts =
  [|
    "";
    "ab";
    "abc";
    "abcabc";
    "aaaa";
    "recover";
    "the recovery path";
    "spec 7 revises the recovery path";
    "keyword: alarm reset";
    "alarm";
    "mississippi";
    "self-describing specification text";
  |]

let text i = texts.(i mod Array.length texts)
let classes = [ "Thing"; "Data"; "Action"; "InputData"; "OutputData" ]

(* Simple (non-structuring) operations, reusable inside transactions. *)
type sop =
  | Create of int * string
  | MkText of int  (** a [Data.Text] node: carriers can nest below it *)
  | MkCarrier of int * int * int  (** role choice, owner, text *)
  | SetText of int * int  (** carrier, new text *)
  | ClearText of int
  | Reclassify of int * string
  | Delete of int  (** an independent: cascades over its carriers *)
  | DeleteCarrier of int

type op =
  | Op of sop
  | Txn of sop list * bool  (** batched apply; [false] rolls back *)
  | Snapshot
  | Branch of int

let sop_gen =
  let open QCheck2.Gen in
  frequency
    [
      (5, map2 (fun i c -> Create (i, c)) (int_bound 40) (oneofl classes));
      (3, map (fun i -> MkText i) (int_bound 40));
      ( 9,
        map3
          (fun r o t -> MkCarrier (r, o, t))
          (int_bound 5) (int_bound 40) (int_bound 40) );
      (5, map2 (fun c t -> SetText (c, t)) (int_bound 40) (int_bound 40));
      (1, map (fun c -> ClearText c) (int_bound 40));
      (2, map2 (fun i c -> Reclassify (i, c)) (int_bound 40) (oneofl classes));
      (1, map (fun i -> Delete i) (int_bound 40));
      (1, map (fun c -> DeleteCarrier c) (int_bound 40));
    ]

let op_gen =
  let open QCheck2.Gen in
  frequency
    [
      (10, map (fun s -> Op s) sop_gen);
      (1, map2 (fun sops ok -> Txn (sops, ok)) (list_size (int_range 1 6) sop_gen) bool);
      (1, return Snapshot);
      (1, map (fun i -> Branch i) (int_bound 2));
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 0 80) op_gen)

type env = {
  mutable db : DB.t;
  mutable stamp : int;  (** uniquifies object names across branches *)
  mutable objects : Ident.t list;
  mutable texts : Ident.t list;  (** Data.Text nodes *)
  mutable carriers : Ident.t list;  (** string-valued sub-objects *)
  mutable versions : Version_id.t list;
}

let pick xs i =
  match xs with [] -> None | _ -> Some (List.nth xs (i mod List.length xs))

let apply_sop env sop =
  let ignore_result (r : (_, Seed_error.t) result) = ignore r in
  match sop with
  | Create (i, cls) -> (
    env.stamp <- env.stamp + 1;
    match
      DB.create_object env.db ~cls
        ~name:(Printf.sprintf "obj%d_%d" i env.stamp) ()
    with
    | Ok id -> env.objects <- id :: env.objects
    | Error _ -> ())
  | MkText i -> (
    match pick env.objects i with
    | None -> ()
    | Some parent -> (
      match DB.create_sub_object env.db ~parent ~role:"Text" () with
      | Ok id -> env.texts <- id :: env.texts
      | Error _ -> ()))
  | MkCarrier (r, o, t) -> (
    (* Description/Keywords hang off any Thing; Body/Selector off a
       Data.Text node — exercising paths at different nesting depths *)
    let choice =
      match r mod 5 with
      | 0 | 1 -> Option.map (fun p -> (p, "Description")) (pick env.objects o)
      | 2 -> Option.map (fun p -> (p, "Keywords")) (pick env.objects o)
      | 3 -> Option.map (fun p -> (p, "Body")) (pick env.texts o)
      | _ -> Option.map (fun p -> (p, "Selector")) (pick env.texts o)
    in
    match choice with
    | None -> ()
    | Some (parent, role) -> (
      match
        DB.create_sub_object env.db ~parent ~role
          ~value:(Value.String (text t)) ()
      with
      | Ok id -> env.carriers <- id :: env.carriers
      | Error _ -> ()))
  | SetText (c, t) -> (
    match pick env.carriers c with
    | None -> ()
    | Some id ->
      ignore_result (DB.set_value env.db id (Some (Value.String (text t)))))
  | ClearText c -> (
    match pick env.carriers c with
    | None -> ()
    | Some id -> ignore_result (DB.set_value env.db id None))
  | Reclassify (i, cls) -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.reclassify env.db id ~to_:cls))
  | Delete i -> (
    match pick env.objects i with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))
  | DeleteCarrier c -> (
    match pick env.carriers c with
    | None -> ()
    | Some id -> ignore_result (DB.delete env.db id))

let apply env op =
  match op with
  | Op sop -> apply_sop env sop
  | Txn (sops, commit) ->
    (* id lists may keep ids a rollback erased; later picks on them
       just fail and are ignored, like any other refused operation *)
    ignore
      (DB.with_transaction env.db (fun () ->
           List.iter (apply_sop env) sops;
           if commit then Ok () else Error (Seed_error.Invalid_operation "rollback")))
  | Snapshot -> (
    match DB.create_version env.db with
    | Ok v -> env.versions <- v :: env.versions
    | Error _ -> ())
  | Branch i -> (
    match pick env.versions i with
    | None -> ()
    | Some v ->
      ignore (DB.begin_alternative env.db ~from_:v ~force:true ()))

let fresh_env () =
  {
    db = DB.create (fig3_schema ());
    stamp = 0;
    objects = [];
    texts = [];
    carriers = [];
    versions = [];
  }

let run_model ops =
  let env = fresh_env () in
  List.iter (apply env) ops;
  env

(* ------------------------------------------------------------------ *)
(* The two invariants                                                   *)
(* ------------------------------------------------------------------ *)

let sorted_ids items =
  List.map (fun (it : Item.t) -> it.Item.id) items |> List.sort Ident.compare

(* The plain definition: some offset where the needle's bytes appear. *)
let reference_contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* The pool's predicates, kept as data so the naive reference can
   evaluate them on its own rather than through [Q.test]. *)
type rpred =
  | Contains of string * string
  | Matches of string * string list
  | Is_a of string
  | In_class of string
  | And of rpred * rpred
  | Or of rpred * rpred
  | Not of rpred

let rec to_pred = function
  | Contains (path, needle) -> Q.contains path needle
  | Matches (path, needles) -> Q.matches path needles
  | Is_a cls -> Q.is_a cls
  | In_class cls -> Q.in_class cls
  | And (p, q) -> Q.(to_pred p &&& to_pred q)
  | Or (p, q) -> Q.(to_pred p ||| to_pred q)
  | Not p -> Q.not_ (to_pred p)

(* Containment read through the view, never the index: the object or
   any of its live sub-objects ([View.children]), at any depth, carries
   a string at the class path holding every needle. *)
let rec ref_carries v (node : Item.t) ~path needles =
  (match View.obj_state v node with
  | Some { Item.cls; value = Some (Value.String s); _ }
    when path = "" || path = cls ->
    List.for_all (reference_contains s) needles
  | Some _ | None -> false)
  || List.exists
       (fun c -> ref_carries v c ~path needles)
       (View.children v node.Item.id)

let rec ref_test p v it =
  match p with
  | Contains (path, needle) -> ref_carries v it ~path [ needle ]
  | Matches (path, needles) -> ref_carries v it ~path needles
  | Is_a cls -> (
    match View.obj_state v it with
    | Some o -> Schema.class_is_a (View.schema v) ~sub:o.Item.cls ~super:cls
    | None -> false)
  | In_class cls -> (
    match View.obj_state v it with
    | Some o -> o.Item.cls = cls
    | None -> false)
  | And (p, q) -> ref_test p v it && ref_test q v it
  | Or (p, q) -> ref_test p v it || ref_test q v it
  | Not p -> not (ref_test p v it)

(* The naive reference bypasses the planner and [Q.test] entirely. *)
let naive_select v p =
  Db_state.fold_items (View.db v) ~init:[] ~f:(fun acc it ->
      if
        it.Item.body = Item.Independent
        && View.live_normal v it
        && ref_test p v it
      then it.Item.id :: acc
      else acc)
  |> List.sort Ident.compare

(* Planted needles, common needles, negatives, sub-trigram shorties
   (scan fallback), path-scoped probes at both nesting depths, and
   conjunctions with the class planner. *)
let predicate_pool =
  [
    Contains ("", "recovery");
    Contains ("", "recover");
    Contains ("", "the recovery path");
    Contains ("", "issip");
    Contains ("", "aaa");
    Contains ("", "abcab");
    Contains ("", "no-such-needle");
    Contains ("", "ab");
    Contains ("", "z");
    Contains ("", "");
    Contains ("Thing.Description", "recovery");
    Contains ("Thing.Keywords", "alarm");
    Contains ("Data.Text.Body", "spec");
    Contains ("Data.Text.Selector", "recovery");
    Contains ("No.Such.Path", "recovery");
    Matches ("", [ "spec"; "recovery path" ]);
    Matches ("", [ "alarm"; "reset" ]);
    Matches ("", [ "recovery"; "xyzzy" ]);
    Matches ("", [ "ab"; "recovery" ]);
    Matches ("", []);
    And (Is_a "Data", Contains ("", "recovery"));
    And (In_class "Action", Contains ("Thing.Description", "alarm"));
    Or (Contains ("", "spec"), Contains ("", "alarm"));
    Not (Contains ("", "recovery"));
  ]

let views env =
  let st = DB.raw env.db in
  View.current st :: List.map (View.at st) env.versions

let select_agrees env =
  List.for_all
    (fun v ->
      List.for_all
        (fun rp ->
          let p = to_pred rp in
          let planned = sorted_ids (Q.select v p) in
          planned = naive_select v rp
          && Q.count v p = List.length planned)
        predicate_pool)
    (views env)

let index_consistent env =
  let st = DB.raw env.db in
  match Db_state.text_index st with
  | None -> true
  | Some tx -> Text_index.equal tx (Db_state.rebuilt_text_index st)

(* ------------------------------------------------------------------ *)
(* Randomized properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_select =
  qcheck_case ~count:80 "indexed select/count = naive scan" ops_gen (fun ops ->
      select_agrees (run_model ops))

let prop_consistent =
  qcheck_case ~count:80 "incremental index = wholesale rebuild" ops_gen
    (fun ops -> index_consistent (run_model ops))

let prop_all_prefixes =
  qcheck_case ~count:25 "index agrees at every prefix"
    QCheck2.Gen.(list_size (int_range 0 20) op_gen)
    (fun ops ->
      let env = fresh_env () in
      List.for_all
        (fun op ->
          apply env op;
          index_consistent env && select_agrees env)
        ops)

let prop_reopen =
  qcheck_case ~count:50 "reopen rebuilds an equivalent index" ops_gen
    (fun ops ->
      let env = run_model ops in
      let db2 = ok (Persist.decode_db (Persist.encode_db env.db)) in
      let env2 = { env with db = db2 } in
      index_consistent env2 && select_agrees env2)

let prop_disable =
  qcheck_case ~count:50 "disable falls back to scan; re-enable rebuilds"
    ops_gen (fun ops ->
      let env = run_model ops in
      DB.set_text_index_enabled env.db false;
      let off_ok =
        (Db_state.text_index (DB.raw env.db) = None) && select_agrees env
      in
      DB.set_text_index_enabled env.db true;
      off_ok && index_consistent env && select_agrees env)

(* ------------------------------------------------------------------ *)
(* Directed cases                                                       *)
(* ------------------------------------------------------------------ *)

let test_structure () =
  let open Text_index in
  let id i = Ident.of_int i in
  let t = empty in
  Alcotest.(check bool) "empty" true (is_empty t);
  let t = add_doc t (id 1) ~path:"P" "the recovery path" in
  let t = add_doc t (id 2) ~path:"Q" "recover quickly" in
  let t = add_doc t (id 3) ~path:"P" "aaaa" in
  Alcotest.(check int) "docs" 3 (doc_count t);
  let hits needle = Ident.Set.cardinal (query t needle) in
  Alcotest.(check int) "shared stem" 2 (hits "recover");
  Alcotest.(check int) "full phrase" 1 (hits "the recovery path");
  (* overlapping occurrences: "aaaa" holds "aaa" at offsets 0 and 1 *)
  Alcotest.(check int) "overlap" 1 (hits "aaa");
  Alcotest.(check int) "negative" 0 (hits "covery path x");
  (* trigrams present but never adjacent: positions must reject *)
  Alcotest.(check int) "adjacency" 0 (hits "pathrec");
  Alcotest.(check int) "path scope" 1
    (Ident.Set.cardinal (query t ~path:"Q" "recover"));
  Alcotest.(check int) "wrong path" 0
    (Ident.Set.cardinal (query t ~path:"Z" "recover"));
  let t = remove_doc t (id 2) in
  Alcotest.(check int) "after remove" 1
    (Ident.Set.cardinal (query t "recover"));
  let s = stats t in
  Alcotest.(check int) "stats docs" 2 s.docs;
  Alcotest.(check bool) "stats positions" true (s.positions > 0);
  Alcotest.check
    (Alcotest.testable
       (fun ppf e -> Format.fprintf ppf "%s" (Printexc.to_string e))
       (fun a b -> a = b))
    "short needle refused"
    (Invalid_argument "Text_index.query: needle shorter than 3 bytes")
    (try
       ignore (query t "ab");
       Failure "no exception"
     with e -> e)

let test_explain () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:a ~role:"Description"
         ~value:(Value.String "the recovery path") ())
  in
  let v = View.current (DB.raw db) in
  (match Q.explain v (Q.contains "" "recovery") with
  | Q.Indexed { texts = [ tp ]; est_candidates; _ } ->
    Alcotest.(check string) "needle" "recovery" tp.Q.tp_needle;
    Alcotest.(check int) "trigrams" 6 tp.Q.tp_trigrams;
    Alcotest.(check bool) "verified" true (tp.Q.tp_verified >= 1);
    Alcotest.(check int) "candidates bound" 1 est_candidates
  | _ -> Alcotest.fail "expected an indexed plan with one text probe");
  (match Q.explain v (Q.contains "" "ab") with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "short needle must fall back to scan");
  DB.set_text_index_enabled db false;
  (match Q.explain (View.current (DB.raw db)) (Q.contains "" "recovery") with
  | Q.Scan _ -> ()
  | Q.Indexed _ -> Alcotest.fail "disabled index must fall back to scan");
  DB.set_text_index_enabled db true

let test_counters () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let _ =
    ok
      (DB.create_sub_object db ~parent:a ~role:"Description"
         ~value:(Value.String "alarm reset") ())
  in
  let v = View.current (DB.raw db) in
  let _ = Q.select v (Q.contains "" "alarm") in
  let _ = Q.select v (Q.contains "" "al") in
  let hits, fallbacks = Db_state.text_counters (DB.raw db) in
  Alcotest.(check bool) "hit counted" true (hits >= 1);
  Alcotest.(check bool) "fallback counted" true (fallbacks >= 1);
  let st = DB.stats db in
  Alcotest.(check bool) "stats enabled" true st.DB.st_text_enabled;
  Alcotest.(check bool) "stats docs" true (st.DB.st_text_docs >= 1);
  Alcotest.(check int) "stats hits" hits st.DB.st_text_hits

let test_version_views () =
  let db = fresh_db () in
  let a = ok (DB.create_object db ~cls:"Data" ~name:"A" ()) in
  let d =
    ok
      (DB.create_sub_object db ~parent:a ~role:"Description"
         ~value:(Value.String "old text here") ())
  in
  let v1 = ok (DB.create_version db) in
  ok (DB.set_value db d (Some (Value.String "new words entirely")));
  let st = DB.raw db in
  let old_v = View.at st v1 and cur_v = View.current st in
  let names v p = List.filter_map (View.full_name v) (Q.select v p) in
  Alcotest.(check (list string)) "old view sees old text" [ "A" ]
    (names old_v (Q.contains "" "old text"));
  Alcotest.(check (list string)) "old view misses new text" []
    (names old_v (Q.contains "" "new words"));
  Alcotest.(check (list string)) "current misses old text" []
    (names cur_v (Q.contains "" "old text"));
  Alcotest.(check (list string)) "current sees new text" [ "A" ]
    (names cur_v (Q.contains "" "new words"))

(* ------------------------------------------------------------------ *)
(* Scan-side containment                                                *)
(* ------------------------------------------------------------------ *)

let prop_string_contains =
  let small = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 12)) in
  qcheck_case ~count:500 "string_contains = reference definition"
    QCheck2.Gen.(pair small small)
    (fun (hay, needle) ->
      Text_index.string_contains hay needle = reference_contains hay needle
      (* every substring of the haystack is found *)
      && (String.length hay = 0
         || Text_index.string_contains hay
              (String.sub hay (String.length hay / 3) (String.length hay / 2))))

(* ------------------------------------------------------------------ *)
(* Base, delta and the merge boundary                                   *)
(* ------------------------------------------------------------------ *)

let merges tx = (Text_index.stats tx).Text_index.merges
let set_ids s = List.map Ident.to_int (Ident.Set.elements s)

(* A bulk-built index over [n] documents "doc <i> ..." under path "P". *)
let base_of n =
  Text_index.build (fun add ->
      for i = 1 to n do
        add (Ident.of_int i) ~path:"P" (Printf.sprintf "doc %d plain words" i)
      done)

(* Rewrite documents 1, 2, ... until the index merges: the last index
   before the merge, the first one after it, and the id whose rewrite
   merged. *)
let write_until_merge tx =
  let rec go tx i =
    let tx' =
      Text_index.add_doc tx (Ident.of_int i) ~path:"P"
        (Printf.sprintf "doc %d rewritten words" i)
    in
    if merges tx' > merges tx then (tx, tx', i) else go tx' (i + 1)
  in
  go tx 1

(* [base_of n] with documents 1..k rewritten, as one bulk build. *)
let rewritten_of n k =
  Text_index.build (fun add ->
      for i = 1 to n do
        add (Ident.of_int i) ~path:"P"
          (Printf.sprintf
             (if i <= k then "doc %d rewritten words" else "doc %d plain words")
             i)
      done)

let test_tombstoned_and_live () =
  let tx = base_of 200 in
  Alcotest.(check int) "bulk build has no delta" 0 (Text_index.stats tx).Text_index.delta;
  (* id 7 is in the base; rewriting it tombstones the base entry and
     puts the new text in the delta *)
  let tx = Text_index.add_doc tx (Ident.of_int 7) ~path:"Q" "fresh alarm text" in
  Alcotest.(check int) "no merge yet" 0 (merges tx);
  Alcotest.(check int) "a tombstone plus a delta doc" 2 (Text_index.stats tx).Text_index.delta;
  Alcotest.(check int) "doc count unchanged" 200 (Text_index.doc_count tx);
  Alcotest.(check (list int)) "old text gone" [] (set_ids (Text_index.query tx "doc 7 plain"));
  Alcotest.(check (list int)) "new text found" [ 7 ] (set_ids (Text_index.query tx "alarm"));
  Alcotest.(check (option string)) "path from the delta" (Some "Q")
    (Text_index.path_of tx (Ident.of_int 7));
  Alcotest.(check (list int)) "path-scoped base probe skips the stale entry" []
    (set_ids (Text_index.query tx ~path:"P" "doc 7 plain"));
  (* removing it drops the delta doc; the base entry stays tombstoned *)
  let gone = Text_index.remove_doc tx (Ident.of_int 7) in
  Alcotest.(check int) "one fewer doc" 199 (Text_index.doc_count gone);
  Alcotest.(check (option string)) "no path" None (Text_index.path_of gone (Ident.of_int 7));
  Alcotest.(check (list int)) "neither text" []
    (set_ids (Ident.Set.union (Text_index.query gone "alarm") (Text_index.query gone "doc 7 plain")));
  Alcotest.(check bool) "= a build without it" true
    (Text_index.equal gone
       (Text_index.build (fun add ->
            for i = 1 to 200 do
              if i <> 7 then
                add (Ident.of_int i) ~path:"P" (Printf.sprintf "doc %d plain words" i)
            done)))

let test_snapshot_across_merge () =
  let before, after, _ = write_until_merge (base_of 300) in
  let probes = [ "plain words"; "rewritten"; "doc 1 "; "doc 29"; "words" ] in
  let answers tx = List.map (fun n -> set_ids (Text_index.query tx n)) probes in
  let pinned = answers before in
  Alcotest.(check bool) "the pinned index has a delta" true
    ((Text_index.stats before).Text_index.delta > 0);
  Alcotest.(check int) "the merge emptied the delta" 0 (Text_index.stats after).Text_index.delta;
  let _ = write_until_merge after in
  Alcotest.(check (list (list int))) "pinned index answers as before" pinned (answers before)

let test_equal_is_logical () =
  let unmerged, merged, k = write_until_merge (base_of 100) in
  let rebuilt = rewritten_of 100 k in
  Alcotest.(check bool) "merged = bulk build" true (Text_index.equal merged rebuilt);
  Alcotest.(check bool) "unmerged differs by one write" false
    (Text_index.equal unmerged rebuilt);
  Alcotest.(check bool) "unmerged = its own bulk build" true
    (Text_index.equal unmerged (rewritten_of 100 (k - 1)))

let test_wide_fields () =
  (* ids far beyond any packed width, and a text whose offsets need 18
     bits: both must be indexed exactly, before and after merges *)
  let big = [ max_int - 3; 1 lsl 40; 1 lsl 20; 5 ] in
  let long = String.make 200_000 'x' ^ "needle at the far end" in
  let docs = List.map (fun i -> (i, if i = 1 lsl 40 then long else Printf.sprintf "short %d text" i)) big in
  let built =
    Text_index.build (fun add ->
        List.iter (fun (i, s) -> add (Ident.of_int i) ~path:"P" s) docs)
  in
  let incremental =
    List.fold_left
      (fun tx (i, s) -> Text_index.add_doc tx (Ident.of_int i) ~path:"P" s)
      Text_index.empty docs
  in
  List.iter
    (fun (what, tx) ->
      Alcotest.(check (list int)) (what ^ ": far offset") [ 1 lsl 40 ]
        (set_ids (Text_index.query tx "needle at the far end"));
      Alcotest.(check (list int)) (what ^ ": wide ids") [ max_int - 3 ]
        (set_ids (Text_index.query tx (Printf.sprintf "short %d" (max_int - 3))));
      Alcotest.(check (list int)) (what ^ ": all short") (List.sort compare [ max_int - 3; 1 lsl 20; 5 ])
        (set_ids (Text_index.query tx "text"));
      Alcotest.(check (option string)) (what ^ ": path") (Some "P")
        (Text_index.path_of tx (Ident.of_int (max_int - 3))))
    [ ("bulk", built); ("incremental", incremental) ];
  Alcotest.(check bool) "incremental merged" true (merges incremental > 0);
  Alcotest.(check bool) "incremental = bulk" true (Text_index.equal incremental built)

(* Packed entries put a document's offsets right below the next rank's:
   an aligned start near the end of one text must not borrow the next
   text's trigrams. "bcdabc" holds "abc" at 3 and "bcd" (at 0); with
   offsets packed in 2 bits, "bcd" at 3 + 1 would read as the next
   document's "bcd" at 0. *)
let test_document_boundary () =
  let tx =
    Text_index.build (fun add ->
        add (Ident.of_int 1) ~path:"P" "bcdabc";
        add (Ident.of_int 2) ~path:"P" "bcdx")
  in
  Alcotest.(check (list int)) "no match across the boundary" []
    (set_ids (Text_index.query tx "abcd"));
  Alcotest.(check (list int)) "the real occurrence" [ 1 ]
    (set_ids (Text_index.query tx "dabc"))

(* ------------------------------------------------------------------ *)
(* The cursor walk                                                      *)
(* ------------------------------------------------------------------ *)

(* A bulk build of [(id, path, text)]. *)
let index_of docs =
  Text_index.build (fun add ->
      List.iter (fun (i, p, s) -> add (Ident.of_int i) ~path:p s) docs)

let check_query tx ?path needle expected =
  Alcotest.(check (list int)) needle expected
    (set_ids (Text_index.query tx ?path needle))

(* Every instance of "aaaaaa" is the same trigram, so all four cursors
   walk one run; "abcabcab" repeats "abc", "bca" and "cab". *)
let test_repeated_trigrams () =
  let tx =
    index_of
      [
        (1, "P", "aaaaaa");
        (2, "P", "aaaaa");
        (3, "P", "xaaaaaax");
        (4, "P", "aaa aaa");
        (5, "P", "abcabcab");
        (6, "P", "abcabcaX");
        (7, "P", "abcab cab");
        (8, "P", "xxabcabcabcab");
      ]
  in
  check_query tx "aaaaaa" [ 1; 3 ];
  check_query tx "aaaa" [ 1; 2; 3 ];
  check_query tx "abcabcab" [ 5; 8 ];
  check_query tx "cabcab" [ 5; 8 ];
  check_query tx "bcab" [ 5; 6; 7; 8 ]

(* Hits on adjacent ranks, on the first and the last rank of the runs,
   with near misses (one word without the other, the words apart)
   between them. *)
let test_adjacent_and_edge_ranks () =
  let tx =
    index_of
      [
        (10, "P", "alpha beta");
        (11, "P", "alpha beta gamma");
        (12, "P", "alpha gamma beta");
        (13, "P", "beta alpha");
        (14, "P", "gamma");
        (15, "P", "alphabeta");
        (16, "P", "x alpha beta");
        (17, "P", "y alpha beta");
      ]
  in
  check_query tx "alpha beta" [ 10; 11; 16; 17 ];
  check_query tx "beta" [ 10; 11; 12; 13; 15; 16; 17 ];
  check_query tx "a beta" [ 10; 11; 12; 16; 17 ];
  check_query tx "gamma beta" [ 12 ];
  check_query tx "a gamma" [ 11; 12 ]

(* Tombstoned carriers and carriers on another path sit between the
   hits; the base is big enough that the tombstones do not merge. *)
let test_tombstones_and_paths_between_hits () =
  let docs =
    List.init 60 (fun k ->
        let i = k + 1 in
        if i mod 3 = 0 then (i, (if i mod 2 = 0 then "Q" else "P"), "the rare needle")
        else (i, "P", Printf.sprintf "filler %d" i))
  in
  let tx = index_of docs in
  let tx = Text_index.remove_doc tx (Ident.of_int 9) in
  let tx = Text_index.remove_doc tx (Ident.of_int 21) in
  Alcotest.(check int) "tombstones pending" 2 (Text_index.stats tx).Text_index.delta;
  Alcotest.(check int) "no merge" 0 (merges tx);
  let hits path =
    List.filter_map
      (fun (i, p, s) ->
        if s = "the rare needle" && i <> 9 && i <> 21
           && (match path with None -> true | Some q -> q = p)
        then Some i
        else None)
      docs
  in
  check_query tx "rare needle" (hits None);
  check_query tx ~path:"P" "rare needle" (hits (Some "P"));
  check_query tx ~path:"Q" "e rare" (hits (Some "Q"))

(* The rarest instance occurs twice in the carrier and only its later
   occurrence is aligned: "abc" is rarer than "bcd" here, and "xab" is
   more common than "abc", so the rarest instance is not always the
   needle's first one. *)
let test_later_aligned_start () =
  let tx =
    index_of
      [
        (1, "P", "abcXabcd");
        (2, "P", "bcd one");
        (3, "P", "bcd two");
        (4, "P", "abc xabc");
        (5, "P", "xab one");
        (6, "P", "xab two");
        (7, "P", "abc abx");
      ]
  in
  let found, pr = Text_index.query_probe tx "abcd" in
  Alcotest.(check (list int)) "abcd" [ 1 ] (set_ids found);
  Alcotest.(check int) "abcd candidates" 1 pr.Text_index.pr_candidates;
  let found, pr = Text_index.query_probe tx "xabc" in
  Alcotest.(check (list int)) "xabc" [ 4 ] (set_ids found);
  Alcotest.(check int) "xabc candidates" 1 pr.Text_index.pr_candidates

(* Needles cut from the documents' own text, so most probes hit,
   against a plain map; the probe counts against their definition: a
   candidate is a live carrier on the path holding every needle
   trigram somewhere, a verified one holds the needle. *)
let prop_cursor_walk =
  let open QCheck2.Gen in
  let text = string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; ' ' ]) (int_bound 40) in
  let doc = pair bool text in
  qcheck_case ~count:300 "cursor walk = plain map; probe counts"
    (triple (list_size (int_range 1 80) doc)
       (list_size (int_bound 4) (int_bound 79))
       (list_size (int_range 1 12) (triple nat nat (int_range 3 8))))
    (fun (docs, dropped, cuts) ->
      let docs = List.mapi (fun i (p, s) -> (i + 1, (if p then "P" else "Q"), s)) docs in
      let tx = index_of docs in
      let dropped = List.map (fun k -> (k mod List.length docs) + 1) dropped in
      let tx = List.fold_left (fun tx i -> Text_index.remove_doc tx (Ident.of_int i)) tx dropped in
      let live = List.filter (fun (i, _, _) -> not (List.mem i dropped)) docs in
      let arr = Array.of_list docs in
      let needles =
        List.filter_map
          (fun (d, o, len) ->
            let _, _, s = arr.(d mod Array.length arr) in
            if String.length s < 3 then None
            else
              let o = o mod (String.length s - 2) in
              Some (String.sub s o (Int.min len (String.length s - o))))
          cuts
      in
      let holds_trigrams s needle =
        let ok = ref true in
        for i = 0 to String.length needle - 3 do
          if not (Text_index.string_contains s (String.sub needle i 3)) then ok := false
        done;
        !ok
      in
      List.for_all
        (fun needle ->
          List.for_all
            (fun path ->
              let on_path = List.filter (fun (_, p, _) -> path = None || Some p = path) live in
              let expect =
                List.filter_map
                  (fun (i, _, s) -> if Text_index.string_contains s needle then Some i else None)
                  on_path
              in
              let candidates =
                List.length (List.filter (fun (_, _, s) -> holds_trigrams s needle) on_path)
              in
              let found, pr = Text_index.query_probe tx ?path needle in
              set_ids found = expect
              && pr.Text_index.pr_candidates = candidates
              && pr.Text_index.pr_verified = List.length expect)
            [ None; Some "P" ])
        needles)

(* Text_index against a plain map id -> (path, text): a bulk-built base
   of up to 300 documents, then adds and removes — enough for deltas
   with tombstones, re-added ids and merges at any point. *)
type text_op = Put of int * int * bool | Drop of int

let prop_model =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (3, map3 (fun id t p -> Put (id, t, p)) (int_range 1 320) (int_bound 40) bool);
        (1, map (fun id -> Drop id) (int_range 1 320));
      ]
  in
  qcheck_case ~count:60 "base + delta = plain map"
    (pair (int_bound 300) (list_size (int_bound 120) op))
    (fun (n, ops) ->
      let path p = if p then "P" else "Q" in
      let model = Hashtbl.create 64 in
      for i = 1 to n do
        Hashtbl.replace model i ("P", text i)
      done;
      let tx =
        Text_index.build (fun add ->
            Hashtbl.iter (fun i (p, s) -> add (Ident.of_int i) ~path:p s) model)
      in
      let tx =
        List.fold_left
          (fun tx op ->
            match op with
            | Put (i, t, p) ->
              Hashtbl.replace model i (path p, text t);
              Text_index.add_doc tx (Ident.of_int i) ~path:(path p) (text t)
            | Drop i ->
              Hashtbl.remove model i;
              Text_index.remove_doc tx (Ident.of_int i))
          tx ops
      in
      let naive ?path needle =
        Hashtbl.fold
          (fun i (p, s) acc ->
            if
              (match path with None -> true | Some q -> String.equal p q)
              && Text_index.string_contains s needle
            then i :: acc
            else acc)
          model []
        |> List.sort compare
      in
      let agrees ?path needle =
        set_ids (Text_index.query tx ?path needle) = naive ?path needle
      in
      Text_index.doc_count tx = Hashtbl.length model
      && List.for_all
           (fun needle -> agrees needle && agrees ~path:"Q" needle)
           [ "recover"; "the recovery path"; "aaa"; "abc"; "issip"; "alarm"; "xyz" ]
      && Hashtbl.fold
           (fun i (p, _) ok -> ok && Text_index.path_of tx (Ident.of_int i) = Some p)
           model true
      && Text_index.equal tx
           (Text_index.build (fun add ->
                Hashtbl.iter (fun i (p, s) -> add (Ident.of_int i) ~path:p s) model)))

(* A database-level merge: the workload writes enough strings to cross
   the merge point, inside and outside a transaction. *)
let carriers_db n =
  let db = fresh_db () in
  let cs =
    List.init n (fun i ->
        let a = ok (DB.create_object db ~cls:"Data" ~name:(Printf.sprintf "D%d" i) ()) in
        ok
          (DB.create_sub_object db ~parent:a ~role:"Description"
             ~value:(Value.String (Printf.sprintf "spec %d describes the alarm" i)) ()))
  in
  (db, cs)

let db_merges db =
  match Db_state.text_index (DB.raw db) with
  | Some tx -> merges tx
  | None -> Alcotest.fail "text index disabled"

let test_rollback_across_merge () =
  let db, cs = carriers_db 200 in
  DB.set_text_index_enabled db false;
  DB.set_text_index_enabled db true (* bulk build: merges start at 0 *);
  let before = Option.get (Db_state.text_index (DB.raw db)) in
  let snap = DB.snapshot_view db in
  let pinned = sorted_ids (Q.select snap (Q.contains "" "alarm")) in
  let crossed = ref false in
  let r =
    DB.with_transaction db (fun () ->
        List.iteri
          (fun i c ->
            if not !crossed then begin
              ok (DB.set_value db c (Some (Value.String (Printf.sprintf "rewritten %d" i))));
              if db_merges db > 0 then crossed := true
            end)
          cs;
        Error (Seed_error.Invalid_operation "rollback"))
  in
  Alcotest.(check bool) "rolled back" true (Result.is_error r);
  Alcotest.(check bool) "a write inside merged" true !crossed;
  let after = Option.get (Db_state.text_index (DB.raw db)) in
  Alcotest.(check bool) "pre-merge index restored" true (after == before);
  Alcotest.(check int) "merge count restored" 0 (merges after);
  Alcotest.(check (list int)) "snapshot still answers"
    (List.map Ident.to_int pinned)
    (List.map Ident.to_int (sorted_ids (Q.select snap (Q.contains "" "alarm"))));
  Alcotest.(check int) "current view sees every alarm" 200
    (List.length (Q.select (View.current (DB.raw db)) (Q.contains "" "alarm")))

let test_snapshot_counters () =
  let db, _ = carriers_db 3 in
  let hits0 = (DB.stats db).DB.st_text_hits in
  let fallbacks0 = (DB.stats db).DB.st_text_fallbacks in
  let snap = DB.snapshot_view db in
  let found = Q.select snap (Q.contains "" "alarm") in
  Alcotest.(check int) "found on the snapshot" 3 (List.length found);
  ignore (Q.select snap (Q.contains "" "al"));
  let st = DB.stats db in
  Alcotest.(check int) "parent counts the snapshot's hit" (hits0 + 1) st.DB.st_text_hits;
  Alcotest.(check int) "and its fallback" (fallbacks0 + 1) st.DB.st_text_fallbacks

let () =
  Alcotest.run "text_index"
    [
      ( "structure",
        [ tc "postings and verification" test_structure;
          tc "explain" test_explain;
          tc "counters and stats" test_counters;
          tc "version views" test_version_views;
          tc "counters see snapshot reads" test_snapshot_counters;
          prop_string_contains ] );
      ( "merge",
        [ tc "tombstoned in base, live in delta" test_tombstoned_and_live;
          tc "pinned index across a merge" test_snapshot_across_merge;
          tc "equal is logical" test_equal_is_logical;
          tc "wide ids and offsets" test_wide_fields;
          tc "no match across a document boundary" test_document_boundary;
          tc "rollback across a merge" test_rollback_across_merge;
          prop_model ] );
      ( "cursor",
        [ tc "repeated trigrams" test_repeated_trigrams;
          tc "adjacent, first and last ranks" test_adjacent_and_edge_ranks;
          tc "tombstones and other paths between hits"
            test_tombstones_and_paths_between_hits;
          tc "only a later start is aligned" test_later_aligned_start;
          prop_cursor_walk ] );
      ( "equivalence",
        [ prop_select; prop_consistent; prop_all_prefixes; prop_reopen;
          prop_disable ] );
    ]
