(* Workload generators shared by the benchmark suites. All three
   backends (SEED, the rigid conventional store, the raw structures)
   receive the same logical workload so the comparisons are fair. *)

open Seed_util
open Seed_schema
module DB = Seed_core.Database
module Rigid = Seed_baseline.Rigid_store
module Raw = Seed_baseline.Raw_store

let ok = Seed_error.ok_exn

let schema = Spades_tool.Spec_model.schema

let data_name i = Printf.sprintf "Data%04d" i
let action_name i = Printf.sprintf "Action%04d" i

(* --- Fig. 1/2 population: n data objects with description, each read
   by a matching action ------------------------------------------------ *)

let seed_populate n =
  let db = DB.create schema in
  for i = 0 to n - 1 do
    let d = ok (DB.create_object db ~cls:"InputData" ~name:(data_name i) ()) in
    let a = ok (DB.create_object db ~cls:"Action" ~name:(action_name i) ()) in
    let _ =
      ok
        (DB.create_sub_object db ~parent:d ~role:"Description"
           ~value:(Value.String "generated") ())
    in
    ignore (ok (DB.create_relationship db ~assoc:"Read" ~endpoints:[ d; a ] ()))
  done;
  db

let rigid_populate n =
  let t = Rigid.create schema in
  for i = 0 to n - 1 do
    ok
      (Rigid.insert_cluster t
         ~objs:
           [
             {
               Rigid.no_name = data_name i;
               no_cls = "InputData";
               no_value = None;
               no_subs = [ ("Description", Some (Value.String "generated")) ];
             };
             {
               Rigid.no_name = action_name i;
               no_cls = "Action";
               no_value = None;
               no_subs = [];
             };
           ]
         ~rels:
           [
             {
               Rigid.nr_assoc = "Read";
               nr_endpoints = [ data_name i; action_name i ];
             };
           ])
  done;
  t

let raw_populate n =
  let t = Raw.create () in
  for i = 0 to n - 1 do
    Raw.put_object t ~name:(data_name i) ~cls:"InputData";
    Raw.put_object t ~name:(action_name i) ~cls:"Action";
    Raw.set_attr t ~name:(data_name i) ~attr:"Description"
      (Value.String "generated");
    Raw.add_rel t ~assoc:"Read" ~from_:(data_name i) ~to_:(action_name i)
  done;
  t

(* --- Fig. 3 lifecycle: enter vaguely, refine in three steps ---------- *)

(* SEED: the natural path — re-classification in place. Returns the
   number of schema-level update operations used. *)
let seed_vague_lifecycle db i =
  let d = ok (DB.create_object db ~cls:"Thing" ~name:(data_name i) ()) in
  let a = ok (DB.create_object db ~cls:"Thing" ~name:(action_name i) ()) in
  (* step 2: classes become known *)
  ok (DB.reclassify db d ~to_:"Data");
  ok (DB.reclassify db a ~to_:"Action");
  let acc = ok (DB.create_relationship db ~assoc:"Access" ~endpoints:[ d; a ] ()) in
  (* step 3: direction becomes known *)
  ok (DB.reclassify db d ~to_:"InputData");
  ok (DB.reclassify db acc ~to_:"Read");
  7

(* Rigid: vague states cannot be stored at all; every refinement is a
   delete + re-insert of the complete cluster. Returns op count. *)
let rigid_vague_lifecycle t i =
  (* step 1 impossible (no Thing; nothing to store). step 2: the cluster
     becomes representable only when fully precise, so the conventional
     process stores it only at step 3 — but a faithful tool re-enters the
     whole cluster at each refinement that *is* representable. *)
  let insert cls assoc =
    ok
      (Rigid.insert_cluster t
         ~objs:
           [
             { Rigid.no_name = data_name i; no_cls = cls; no_value = None; no_subs = [] };
             {
               Rigid.no_name = action_name i;
               no_cls = "Action";
               no_value = None;
               no_subs = [];
             };
           ]
         ~rels:
           [ { Rigid.nr_assoc = assoc; nr_endpoints = [ data_name i; action_name i ] } ])
  in
  (* first representable state *)
  insert "InputData" "Read";
  (* a later refinement (say, the data turns out to be OutputData/Write)
     forces delete + re-insert of the pair *)
  ok (Rigid.delete_object t (action_name i));
  ok (Rigid.delete_object t (data_name i));
  let insert2 () =
    ok
      (Rigid.insert_cluster t
         ~objs:
           [
             {
               Rigid.no_name = data_name i;
               no_cls = "OutputData";
               no_value = None;
               no_subs = [];
             };
             {
               Rigid.no_name = action_name i;
               no_cls = "Action";
               no_value = None;
               no_subs = [];
             };
           ]
         ~rels:
           [ { Rigid.nr_assoc = "Write"; nr_endpoints = [ data_name i; action_name i ] } ])
  in
  insert2 ();
  4

let raw_vague_lifecycle t i =
  Raw.put_object t ~name:(data_name i) ~cls:"Thing";
  Raw.put_object t ~name:(action_name i) ~cls:"Thing";
  Raw.put_object t ~name:(data_name i) ~cls:"Data";
  Raw.put_object t ~name:(action_name i) ~cls:"Action";
  Raw.add_rel t ~assoc:"Access" ~from_:(data_name i) ~to_:(action_name i);
  Raw.put_object t ~name:(data_name i) ~cls:"InputData";
  7

(* --- Fig. 4: version churn ------------------------------------------ *)

(* a database of n objects with a description each; [churn] of them are
   touched between snapshots *)
let seed_versioned_db n =
  let db = DB.create schema in
  let descriptions =
    Array.init n (fun i ->
        let d = ok (DB.create_object db ~cls:"InputData" ~name:(data_name i) ()) in
        ok
          (DB.create_sub_object db ~parent:d ~role:"Description"
             ~value:(Value.String "initial") ()))
  in
  (db, descriptions)

let seed_churn db descriptions ~churn ~round =
  let n = Array.length descriptions in
  for k = 0 to churn - 1 do
    let idx = k * 7919 mod n in
    ok
      (DB.set_value db descriptions.(idx)
         (Some (Value.String (Printf.sprintf "revision %d" round))))
  done

let rigid_versioned_db n =
  let t = Rigid.create schema in
  for i = 0 to n - 1 do
    ok
      (Rigid.insert_cluster t
         ~objs:
           [
             {
               Rigid.no_name = data_name i;
               no_cls = "InputData";
               no_value = None;
               no_subs = [ ("Description", Some (Value.String "initial")) ];
             };
           ]
         ~rels:[])
  done;
  t

let rigid_churn t n ~churn ~round =
  for k = 0 to churn - 1 do
    let idx = k * 7919 mod n in
    ok
      (Rigid.set_value t ~name:(data_name idx) ~role:("Description", 0)
         (Value.String (Printf.sprintf "revision %d" round)))
  done

(* --- Fig. 5: shared deadline via pattern vs manual copies ------------ *)

let pattern_schema =
  Schema.of_defs_exn
    [
      Class_def.v [ "Procedure" ];
      Class_def.v ~card:Cardinality.opt ~content:Value_type.Date
        [ "Procedure"; "Deadline" ];
      Class_def.v ~card:Cardinality.any ~content:Value_type.String
        [ "Procedure"; "Note" ];
    ]
    []

let seed_pattern_family k =
  let db = DB.create pattern_schema in
  let p = ok (DB.create_object db ~cls:"Procedure" ~name:"Std" ~pattern:true ()) in
  let deadline =
    ok (DB.create_sub_object db ~parent:p ~role:"Deadline" ~value:(Value.date 1986 6 1) ())
  in
  for i = 0 to k - 1 do
    let m =
      ok (DB.create_object db ~cls:"Procedure" ~name:(Printf.sprintf "P%04d" i) ())
    in
    ok (DB.inherit_pattern db ~pattern:p ~inheritor:m)
  done;
  (db, deadline)

let raw_copy_family k =
  let t = Raw.create () in
  for i = 0 to k - 1 do
    let name = Printf.sprintf "P%04d" i in
    Raw.put_object t ~name ~cls:"Procedure";
    Raw.set_attr t ~name ~attr:"Deadline" (Value.String "1986-06-01")
  done;
  t

(* --- S1: the SPADES editing session ---------------------------------- *)

let spades_session_on_seed n =
  let module S = Spades_tool.Spades in
  let t = S.create () in
  for i = 0 to n - 1 do
    ignore (ok (S.note_thing t (data_name i) ~description:"d" ()));
    ignore (ok (S.note_thing t (action_name i) ()));
    let f = ok (S.add_flow t ~data:(data_name i) ~action:(action_name i) S.Vague) in
    ok (S.refine_flow t f S.Reading);
    ignore (ok (S.add_keyword t (data_name i) "bench"))
  done;
  t

let spades_session_on_raw n =
  let module S = Spades_tool.Spades in
  let module R = Spades_tool.Spades_raw in
  let t = R.create () in
  for i = 0 to n - 1 do
    R.note_thing t (data_name i) ~description:"d" ();
    R.note_thing t (action_name i) ();
    R.add_flow t ~data:(data_name i) ~action:(action_name i) S.Vague;
    R.refine_flow t ~data:(data_name i) ~action:(action_name i) S.Reading;
    R.add_keyword t (data_name i) "bench"
  done;
  t

(* --- Q1: the query-planner workload ---------------------------------- *)

(* A generalization chain C0 <- C1 <- ... <- C7 with 24 leaf classes
   under C0. Objects are spread so that each chain class holds ~n/125 of
   the database — queries over the chain are selective, which is where
   an extent index pays off; the leaves hold the bulk. *)
let query_schema =
  let cname i = Printf.sprintf "C%d" i in
  let chain =
    List.init 8 (fun i ->
        if i = 0 then Class_def.v [ cname 0 ]
        else Class_def.v ~super:(cname (i - 1)) [ cname i ])
  in
  let leaves =
    List.init 24 (fun i ->
        Class_def.v ~super:(cname 0) [ Printf.sprintf "D%02d" i ])
  in
  Schema.of_defs_exn (chain @ leaves) []

let query_name i = Printf.sprintf "Q%06d" i

let query_populate n =
  let db = DB.create query_schema in
  for i = 0 to n - 1 do
    let cls =
      if i mod 125 < 8 then Printf.sprintf "C%d" (i mod 125)
      else Printf.sprintf "D%02d" (i mod 24)
    in
    ignore (ok (DB.create_object db ~cls ~name:(query_name i) ()))
  done;
  db

(* --- V1: the version-read workload ----------------------------------- *)

(* The query-planner database grown through [versions] snapshots: each
   round re-classifies ~5% of the objects among the leaf classes and
   takes a snapshot, so stamps spread over the whole version chain and
   resolving the view of the newest version walks deep ancestor chains
   for the ~95% of items untouched since early rounds. Returns the
   version labels in creation order. *)
let versioned_query_db ~items ~versions =
  let db = DB.create query_schema in
  for i = 0 to items - 1 do
    let cls =
      if i mod 125 < 8 then Printf.sprintf "C%d" (i mod 125)
      else Printf.sprintf "D%02d" (i mod 24)
    in
    ignore (ok (DB.create_object db ~cls ~name:(query_name i) ()))
  done;
  let vids = ref [ ok (DB.create_version db) ] in
  let churn = max 1 (items / 20) in
  for round = 1 to versions - 1 do
    for k = 1 to churn do
      let idx = k * 7919 mod items in
      match DB.find_object db (query_name idx) with
      | Some id ->
        ignore (DB.reclassify db id ~to_:(Printf.sprintf "D%02d" ((idx + round) mod 24)))
      | None -> ()
    done;
    vids := ok (DB.create_version db) :: !vids
  done;
  (db, List.rev !vids)

(* --- X1: the content-search workload --------------------------------- *)

(* n specification documents over the SPADES schema: each a [Data]
   object whose [Description] carries a sentence of 12 vocabulary words
   drawn by a deterministic LCG. Selectivity is planted: the phrase
   "fault quarantine beacon" (words outside the vocabulary) appears in
   exactly 10 documents at any size, "recovery" shows up in roughly a
   fifth of them, and "holographic xylophone" in none. [text_pair] —
   two vocabulary words, each in about a quarter of the documents —
   is appended to exactly 50 others: the LCG never puts them side by
   side, nor any pair sharing the trigram that spans their gap, so that
   trigram's run holds those 50 documents while the other trigrams'
   runs are common-word runs, as in a search for two adjacent words. *)

let text_vocab =
  [|
    "the"; "module"; "reads"; "its"; "input"; "stream"; "and"; "writes";
    "a"; "checked"; "record"; "to"; "journal"; "before"; "commit";
    "every"; "alarm"; "handler"; "must"; "release"; "lease"; "within";
    "bounded"; "time"; "or"; "escalate"; "recovery"; "path"; "replays";
    "pending"; "groups"; "after"; "crash"; "version"; "views"; "stay";
    "immutable"; "while"; "branch"; "switch"; "rebuilds"; "extent";
    "caches"; "operator"; "confirms"; "each"; "step"; "manually";
  |]

let text_pair = "alarm stream"
let text_doc_name i = Printf.sprintf "Spec%06d" i

let text_body ~n i =
  let buf = Buffer.create 96 in
  let s = ref ((i * 2654435761) land 0x3FFFFFFF) in
  for w = 0 to 11 do
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    if w > 0 then Buffer.add_char buf ' ';
    Buffer.add_string buf text_vocab.(!s mod Array.length text_vocab)
  done;
  if i mod (max 1 (n / 10)) = 0 then
    Buffer.add_string buf " fault quarantine beacon"
  else if i mod (max 1 (n / 50)) = n / 100 then begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf text_pair
  end;
  Buffer.contents buf

(* Returns the database and the carrier (Description sub-object) ids,
   indexable by document number, for the update benchmarks. *)
let text_populate n =
  let db = DB.create schema in
  let carriers = Array.make n Seed_util.Ident.(of_int 0) in
  for i = 0 to n - 1 do
    let d = ok (DB.create_object db ~cls:"Data" ~name:(text_doc_name i) ()) in
    carriers.(i) <-
      ok
        (DB.create_sub_object db ~parent:d ~role:"Description"
           ~value:(Value.String (text_body ~n i)) ())
  done;
  (db, carriers)
