(* The prepared store: the corpus loaded into a SEED directory, flushed
   and compacted once per (size, seed), then copied fresh for every
   server start and every traced pass, so each starts from the same
   bytes. *)

open Seed_util
open Seed_schema
module DB = Seed_core.Database
module Session = Seed_core.Persist.Session

let ok what = function
  | Ok x -> x
  | Error e -> failwith (what ^ ": " ^ Seed_error.to_string e)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  Fun.protect
    ~finally:(fun () -> close_in ic; close_out oc)
    (fun () ->
      let buf = Bytes.create 65536 in
      let rec loop () =
        let k = input ic buf 0 (Bytes.length buf) in
        if k > 0 then (output oc buf 0 k; loop ())
      in
      loop ())

let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    (Sys.readdir src)

(* Bytes held by the files of a store directory. *)
let dir_bytes d =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat d f)).Unix.st_size)
    0 (Sys.readdir d)

let load (c : Gen.corpus) dir =
  let s = ok "create store" (Session.open_ ~dir ~schema:Spades_tool.Spec_model.schema ()) in
  let db = Session.db s in
  (* the index is rebuilt on every open anyway; maintaining it during
     the bulk load would only slow the preparation down *)
  DB.set_text_index_enabled db false;
  Array.iter
    (fun (d : Gen.doc) ->
      let o = ok "create" (DB.create_object db ~cls:"Data" ~name:d.Gen.name ()) in
      ignore
        (ok "describe"
           (DB.create_sub_object db ~parent:o ~role:"Description"
              ~value:(Value.String d.Gen.text) ()));
      ignore
        (ok "date"
           (DB.create_sub_object db ~parent:o ~role:"Revised"
              ~value:(Value.Date d.Gen.revised) ())))
    c.Gen.docs;
  ok "flush" (Session.flush s);
  ok "compact" (Session.compact s);
  Session.close s

(* The prepared store for this corpus under [work], built on first use
   and named by a digest of the corpus, so a changed generator never
   reuses a stale store. It is built aside and renamed into place, so an
   interrupted build is never mistaken for a finished one. *)
let prepared ~work (c : Gen.corpus) =
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (Array.to_list
               (Array.map
                  (fun (d : Gen.doc) ->
                    let r = d.Gen.revised in
                    Printf.sprintf "%s %d-%d-%d %s" d.Gen.name r.Value.year
                      r.Value.month r.Value.day d.Gen.text)
                  c.Gen.docs))))
  in
  let dir =
    Filename.concat work
      (Printf.sprintf "store-%d-%s" (Array.length c.Gen.docs) digest)
  in
  if not (Sys.file_exists dir) then begin
    let tmp = dir ^ ".tmp" in
    rm_rf tmp;
    mkdir_p tmp;
    load c tmp;
    Unix.rename tmp dir
  end;
  dir
