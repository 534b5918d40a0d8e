open Seed_util
open Seed_error

type sync_policy = [ `Always_fsync | `Flush_only | `None ]

type t = {
  jpath : string;
  jepoch : int;
  sync_policy : sync_policy;
  pending : Buffer.t;  (* frames not yet handed to the OS (`None policy) *)
  mutable file : Io.file option;
}

(* "SEE4": data frames of version 4 of the journal layout, in which
   every transaction, of one record or many, is its data frames followed
   by one commit marker. The frame CRC covers the epoch and length
   header fields as well as the payload, so a bit flipped anywhere in
   the frame except the magic is caught as damage rather than silently
   changing the frame's epoch or extent. *)
let magic = 0x53454534l

(* "SEC4": commit markers. Same envelope as data frames, so the
   CRC/torn-tail machinery covers them for free. *)
let commit_magic = 0x53454334l

(* The retired version-3 layout ("SEE3" data, "SEEC" begin/commit/solo
   markers) used the same envelope. Its frames are recognized only to
   refuse the journal: under version 4 a marker-less frame is an orphan,
   so reading a version-3 journal would silently drop its records. *)
let v3_magic = 0x53454533l
let v3_control_magic = 0x53454543l

let header_bytes = 16

let wrap_io = Seed_error.wrap_io

let open_ ?(io = Io.real) ?(sync = `Flush_only) ?(epoch = 0) path =
  wrap_io (fun () ->
      let file = io.Io.open_append path in
      {
        jpath = path;
        jepoch = epoch;
        sync_policy = sync;
        pending = Buffer.create 256;
        file = Some file;
      })

let file_of j =
  match j.file with
  | Some f -> Ok f
  | None -> fail (Io_error ("journal closed: " ^ j.jpath))

(* The frame CRC covers epoch, length, and payload — everything after
   the magic — so header corruption is detected like payload
   corruption. *)
let frame_crc ~epoch payload =
  let h = Bytes.create 8 in
  Bytes.set_int32_le h 0 (Int32.of_int epoch);
  Bytes.set_int32_le h 4 (Int32.of_int (String.length payload));
  Crc32.digest ~init:(Crc32.digest_sub h ~pos:0 ~len:8) payload

(* Appends one frame to [b] and returns its CRC. *)
let add_frame b ~magic:m epoch payload =
  let crc = frame_crc ~epoch payload in
  Buffer.add_int32_le b m;
  Buffer.add_int32_le b (Int32.of_int epoch);
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b crc;
  Buffer.add_string b payload;
  crc

(* The group CRC digests the data frames' own CRCs, which already cover
   each record's epoch, length and payload: the commit marker vouches
   for the exact records it closes without a second pass over their
   bytes. *)
let group_crc frame_crcs =
  let b = Buffer.create (4 * List.length frame_crcs) in
  List.iter (Buffer.add_int32_le b) frame_crcs;
  Crc32.digest (Buffer.contents b)

(* The commit payload is [count u32 | group crc u32]. *)
let commit_payload frame_crcs =
  let b = Buffer.create 8 in
  Buffer.add_int32_le b (Int32.of_int (List.length frame_crcs));
  Buffer.add_int32_le b (group_crc frame_crcs);
  Buffer.contents b

let write_pending j (f : Io.file) =
  if Buffer.length j.pending > 0 then begin
    f.Io.write (Buffer.contents j.pending);
    Buffer.clear j.pending
  end

(* ------------------------------------------------------------------ *)
(* Appending                                                            *)
(* ------------------------------------------------------------------ *)

let write_bytes j f bytes =
  match j.sync_policy with
  | `None -> Buffer.add_string j.pending bytes
  | `Flush_only ->
    write_pending j f;
    f.Io.write bytes
  | `Always_fsync ->
    write_pending j f;
    f.Io.write bytes;
    f.Io.fsync ()

let append_batch j txns =
  match List.filter (fun ps -> ps <> []) txns with
  | [] -> Ok ()
  | txns ->
    let* f = file_of j in
    wrap_io (fun () ->
        let b = Buffer.create 512 in
        List.iter
          (fun payloads ->
            let crcs = List.map (add_frame b ~magic j.jepoch) payloads in
            ignore
              (add_frame b ~magic:commit_magic j.jepoch (commit_payload crcs)))
          txns;
        (* all the transactions go down in one write (and, under
           [`Always_fsync], one fsync): a crash leaves each of them
           either whole or without its commit marker — never a
           committed prefix *)
        write_bytes j f (Buffer.contents b))

let append_group j payloads = append_batch j [ payloads ]
let append j payload = append_batch j [ [ payload ] ]

let sync j =
  let* f = file_of j in
  wrap_io (fun () ->
      write_pending j f;
      f.Io.fsync ())

let close j =
  match j.file with
  | None -> ()
  | Some f ->
    j.file <- None;
    (* best-effort: a failed (or crashed) flush simply loses the
       unsynced records, which is what the `None policy promises *)
    (try write_pending j f with _ -> Buffer.clear j.pending);
    (try f.Io.close () with _ -> ())

let path j = j.jpath
let epoch j = j.jepoch
let sync_policy j = j.sync_policy

(* ------------------------------------------------------------------ *)
(* Recovery-side reads                                                  *)
(* ------------------------------------------------------------------ *)

type kind = Data | Commit of { count : int; crc : int32 }

type frame = {
  f_epoch : int;
  f_payload : string;
  f_offset : int;
  f_crc : int32;
  f_kind : kind;
}

type damage = { d_offset : int; d_end : int; d_reason : string }

type scan_result = {
  frames : frame list;
  scan_damage : damage list;
  file_size : int;
}

let scan ?(io = Io.real) path =
  if not (io.Io.exists path) then
    Ok { frames = []; scan_damage = []; file_size = 0 }
  else
    let* records, damages, v3_frame, size =
      wrap_io (fun () ->
          let buf = io.Io.read_file path in
          let size = String.length buf in
          (* parse the frame whose header starts at [pos] *)
          let frame_at pos =
            if size - pos < header_bytes then `Bad "truncated frame header"
            else
              let m = String.get_int32_le buf pos in
              if
                m <> magic && m <> commit_magic && m <> v3_magic
                && m <> v3_control_magic
              then `Bad "bad magic"
              else
                let ep = Int32.to_int (String.get_int32_le buf (pos + 4)) in
                let len = Int32.to_int (String.get_int32_le buf (pos + 8)) in
                let crc = String.get_int32_le buf (pos + 12) in
                if ep < 0 then `Bad "negative epoch"
                else if len < 0 then `Bad "negative length"
                else if size - pos - header_bytes < len then
                  `Bad "truncated payload"
                else
                  let payload = String.sub buf (pos + header_bytes) len in
                  let frame kind =
                    `Frame
                      ( { f_epoch = ep; f_payload = payload; f_offset = pos;
                          f_crc = crc; f_kind = kind },
                        pos + header_bytes + len )
                  in
                  if frame_crc ~epoch:ep payload <> crc then `Bad "crc mismatch"
                  else if m = magic then frame Data
                  else if m <> commit_magic then `V3
                  else if len <> 8 then `Bad "bad commit marker"
                  else
                    frame
                      (Commit
                         {
                           count = Int32.to_int (String.get_int32_le payload 0);
                           crc = String.get_int32_le payload 4;
                         })
          in
          (* after damage, hunt byte-by-byte for the next offset where a
             whole frame — magic, sane lengths, matching CRC — parses; the
             CRC makes a false resync on payload bytes vanishingly
             unlikely *)
          let rec resync pos =
            if size - pos < header_bytes then None
            else
              match frame_at pos with
              | `Frame _ | `V3 -> Some pos
              | `Bad _ -> resync (pos + 1)
          in
          let records = ref [] and damages = ref [] in
          let rec loop pos =
            if pos >= size then None
            else
              match frame_at pos with
              | `Frame (f, next) ->
                records := f :: !records;
                loop next
              | `V3 -> Some pos
              | `Bad d_reason -> (
                match resync (pos + 1) with
                | Some next ->
                  damages := { d_offset = pos; d_end = next; d_reason } :: !damages;
                  loop next
                | None ->
                  damages := { d_offset = pos; d_end = size; d_reason } :: !damages;
                  None)
          in
          let v3_frame = loop 0 in
          (List.rev !records, List.rev !damages, v3_frame, size))
    in
    match v3_frame with
    | Some off ->
      fail
        (Corrupt
           (Printf.sprintf
              "journal %s: frame at offset %d is in the retired SEE3 journal \
               layout (bare, solo and begin/commit frames), which this \
               version does not read; compact the store with the release \
               that wrote it, then reopen"
              path off))
    | None -> Ok { frames = records; scan_damage = damages; file_size = size }

let tail_damage s =
  match List.rev s.scan_damage with
  | d :: _ when d.d_end = s.file_size -> Some d
  | _ -> None

let quarantined s =
  match tail_damage s with
  | None -> s.scan_damage
  | Some t -> List.filter (fun d -> d.d_offset <> t.d_offset) s.scan_damage

(* ------------------------------------------------------------------ *)
(* Transaction-group resolution                                         *)
(* ------------------------------------------------------------------ *)

type groups = {
  g_txns : frame list list;
  g_dropped_records : int;
  g_tail_records : int;
  g_tail_start : int option;
}

let committed g = List.concat g.g_txns

let resolve_groups ?(damage = []) frames =
  (* Walks the intact frames in append order, collecting data frames
     until a commit marker closes them. A marker for [count] records
     commits the last [count] collected frames when their frame CRCs
     match its group CRC, and drops them otherwise. Collected frames
     before those [count] never got a commit marker of their own: they
     are orphans of a transaction whose marker was lost, and are
     dropped.

     A quarantined [damage] region between two frames is a barrier: a
     transaction cannot span damaged bytes, so whatever was collected
     before it is dropped. Frames still collected at the end of the
     journal form the unterminated tail. *)
  let txns = ref [] and dropped = ref 0 in
  let drop n = dropped := !dropped + n in
  let barrier ~last_off f =
    List.exists (fun d -> d.d_offset > last_off && d.d_end <= f.f_offset) damage
  in
  (* [pending] holds the [n] collected data frames, newest first *)
  let rec walk ~last_off pending n = function
    | [] -> (pending, n)
    | f :: rest -> (
      let pending, n =
        if barrier ~last_off f then begin
          drop n;
          ([], 0)
        end
        else (pending, n)
      in
      match f.f_kind with
      | Data -> walk ~last_off:f.f_offset (f :: pending) (n + 1) rest
      | Commit { count; crc } ->
        (if count >= 1 && count <= n then begin
           let recs = List.rev (List.filteri (fun i _ -> i < count) pending) in
           if group_crc (List.map (fun r -> r.f_crc) recs) = crc then begin
             txns := recs :: !txns;
             drop (n - count)
           end
           else drop n
         end
         else drop n);
        walk ~last_off:f.f_offset [] 0 rest)
  in
  let tail, tail_records = walk ~last_off:(-1) [] 0 frames in
  drop tail_records;
  {
    g_txns = List.rev !txns;
    g_dropped_records = !dropped;
    g_tail_records = tail_records;
    g_tail_start =
      (match List.rev tail with f :: _ -> Some f.f_offset | [] -> None);
  }

let read_all path =
  (* A damaged tail only loses the records after the damage; recovery
     keeps the intact prefix, mirroring WAL semantics. Records of a
     group whose commit marker never made it are invisible. *)
  let* s = scan path in
  Ok
    (List.map
       (fun f -> f.f_payload)
       (committed (resolve_groups ~damage:s.scan_damage s.frames)))

let read_all_strict path =
  let* s = scan path in
  match s.scan_damage with
  | [] ->
    Ok (List.map (fun f -> f.f_payload) (committed (resolve_groups s.frames)))
  | d :: _ ->
    fail
      (Corrupt
         (Printf.sprintf "journal %s: %s at offset %d" path d.d_reason
            d.d_offset))

let truncate ?(io = Io.real) ?(len = 0) path =
  wrap_io (fun () ->
      if io.Io.exists path then io.Io.truncate path len
      else if len <> 0 then
        raise (Sys_error (path ^ ": cannot truncate a missing journal"));
      (* sync the cut itself, then the directory entry: some filesystems
         would otherwise resurrect pre-truncation bytes after a crash *)
      let f = io.Io.open_append path in
      Fun.protect
        ~finally:(fun () -> f.Io.close ())
        (fun () -> f.Io.fsync ());
      io.Io.fsync_dir (Filename.dirname path))
