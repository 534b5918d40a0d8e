open Seed_util
open Seed_error

type sync_policy = Journal.sync_policy

type t = {
  dir : string;
  io : Io.t;
  sync_policy : sync_policy;
  retry : Retry.policy;
  sleep : (float -> unit) option;
  mutable epoch : int;
  journal : Journal.t option ref;  (* None while compaction swaps it *)
  records : int ref;  (* data records since last compaction *)
  daemon : Commit_daemon.t;
  retried : int Atomic.t;
  active : int Atomic.t;  (* writers currently inside append_group *)
}

let snapshot_path dir = Filename.concat dir "snapshot.bin"
let tmp_path dir = Filename.concat dir "snapshot.bin.tmp"
let quarantine_path dir = Filename.concat dir "snapshot.bin.corrupt"
let journal_path dir = Filename.concat dir "journal.log"
let generation_path dir k = Printf.sprintf "%s.%d" (snapshot_path dir) k

(* old snapshots kept in [snapshot.bin.1..generations], newest first *)
let generations = 2

let wrap_io = Seed_error.wrap_io

let region_bytes ds =
  List.fold_left (fun acc d -> acc + (d.Journal.d_end - d.Journal.d_offset)) 0 ds

let ensure_dir dir =
  wrap_io (fun () ->
      if Sys.file_exists dir then begin
        if not (Sys.is_directory dir) then
          raise (Sys_error (dir ^ " exists and is not a directory"))
      end
      else Unix.mkdir dir 0o755)

(* ------------------------------------------------------------------ *)
(* Recovery                                                             *)
(* ------------------------------------------------------------------ *)

type recovery = {
  records_replayed : int;
  bytes_dropped : int;
  txn_dropped : int;
  torn_tail : string option;
  quarantined : Journal.damage list;
  ahead_dropped : int;
  stale_journal : bool;
  snapshot_generation : int option;
  io_retries : int;
  epoch : int;
}

let recovery_clean r =
  r.bytes_dropped = 0 && r.txn_dropped = 0
  && (not r.stale_journal)
  && r.quarantined = [] && r.ahead_dropped = 0
  && r.snapshot_generation = None

let pp_recovery ppf r =
  if recovery_clean r then
    Fmt.pf ppf "clean (epoch %d, %d records replayed%s)" r.epoch
      r.records_replayed
      (if r.io_retries > 0 then
         Printf.sprintf ", %d transient i/o retr%s" r.io_retries
           (if r.io_retries = 1 then "y" else "ies")
       else "")
  else
    Fmt.pf ppf "epoch %d, %d records replayed, %d bytes dropped%s%s%s%s%s%s%s"
      r.epoch r.records_replayed r.bytes_dropped
      (match r.torn_tail with
      | Some reason -> Printf.sprintf ", torn tail (%s)" reason
      | None -> "")
      (match r.quarantined with
      | [] -> ""
      | ds ->
        Printf.sprintf ", %d damaged region(s) quarantined (%d byte(s))"
          (List.length ds) (region_bytes ds))
      (if r.txn_dropped > 0 then
         Printf.sprintf ", %d uncommitted transaction record(s) discarded"
           r.txn_dropped
       else "")
      (if r.ahead_dropped > 0 then
         Printf.sprintf
           ", %d record(s) ahead of the recovered snapshot discarded"
           r.ahead_dropped
       else "")
      (if r.stale_journal then ", stale journal skipped" else "")
      (match r.snapshot_generation with
      | Some g -> Printf.sprintf ", recovered from snapshot generation %d" g
      | None -> "")
      (if r.io_retries > 0 then
         Printf.sprintf ", %d transient i/o retr%s" r.io_retries
           (if r.io_retries = 1 then "y" else "ies")
       else "")

(* Earlier versions parked the previous snapshot in [snapshot.bin.old]
   mid-compaction. A leftover one may hold the newest acknowledged
   epoch, so recovering from an older generation past it would drop
   journal records without a word: open and fsck refuse the store
   instead, before touching anything. *)
let refuse_leftover_old ~io dir =
  if io.Io.exists (Filename.concat dir "snapshot.bin.old") then
    fail
      (Corrupt
         (Printf.sprintf
            "store %s: snapshot.bin.old is the leftover of a compaction \
             interrupted under an earlier version, which no longer \
             recovers from it — open the store once with that version \
             to finish the compaction"
            dir))
  else Ok ()

(* Loads the newest readable snapshot, walking primary -> generations
   1..[generations]; the second result is the generation that won
   ([None] for the primary). Transient read errors are retried per
   [retry]; a Corrupt result is re-read once (the corruption may live in
   the transport, not the medium) before falling back a generation. *)
let load_snapshot ~io ~retry ~sleep ~count_retry dir =
  let read_one path =
    let corrupt_retried = ref false in
    Retry.with_retry ~policy:retry ?sleep
      ~should_retry:(function
        | Io_transient _ -> true
        | Corrupt _ when not !corrupt_retried ->
          corrupt_retried := true;
          true
        | _ -> false)
      ~on_retry:(fun ~attempt:_ _ -> count_retry ())
      (fun () -> Snapshot_file.read ~io path)
  in
  let candidates =
    (snapshot_path dir, None)
    :: List.init generations (fun i ->
           (generation_path dir (i + 1), Some (i + 1)))
  in
  let primary_damaged = ref false in
  let rec walk first_err = function
    | [] -> (
      (* nothing readable anywhere: absent store, or surface the first
         damage rather than silently hiding data *)
      match first_err with None -> Ok None | Some e -> Error e)
    | (path, src) :: rest -> (
      match read_one path with
      | Ok (Some sp) -> Ok (Some (sp, src))
      | Ok None -> walk first_err rest
      | Error e ->
        if src = None then primary_damaged := true;
        walk (if first_err = None then Some e else first_err) rest)
  in
  let* found = walk None candidates in
  match found with
  | None -> Ok (None, None, false)
  | Some (sp, src) -> Ok (Some sp, src, !primary_damaged)

(* The reference epoch is the snapshot's: the journal's live frames are
   the ones stamped with it. *)
let resolve_journal ~reference (scanned : Journal.scan_result) =
  let frames = scanned.Journal.frames in
  let live = List.filter (fun f -> f.Journal.f_epoch = reference) frames in
  let quarantined = Journal.quarantined scanned in
  let prefix_end =
    match Journal.tail_damage scanned with
    | Some d -> d.Journal.d_offset
    | None -> scanned.Journal.file_size
  in
  (live, quarantined, Journal.resolve_groups ~damage:quarantined live, prefix_end)

(* Sorts the scanned journal against the snapshot's epoch: which
   transactions to replay, how many bytes are dead (torn
   tail, stale or ahead frames), and whether the file should be cut back
   on open. [allow_ahead] is set when recovery fell back to an older
   snapshot: frames of a newer epoch are then unreplayable leftovers to
   drop (and report), not corruption. *)
let classify ~snap_epoch ~allow_ahead ~path (s : Journal.scan_result) =
  let ahead, rest =
    List.partition (fun f -> f.Journal.f_epoch > snap_epoch) s.Journal.frames
  in
  match ahead with
  | f :: _ when not allow_ahead ->
    fail
      (Corrupt
         (Printf.sprintf
            "journal %s: frame at offset %d has epoch %d ahead of snapshot \
             epoch %d — the snapshot it depends on is missing (run fsck)"
            path f.Journal.f_offset f.Journal.f_epoch snap_epoch))
  | _ ->
    let _, quarantined, groups, prefix_end =
      resolve_journal ~reference:snap_epoch s
    in
    let stale = List.filter (fun f -> f.Journal.f_epoch < snap_epoch) rest in
    let committed = Journal.committed groups in
    (* an unterminated transaction at the tail is cut back along with
       any torn bytes: good data ends where its first record starts *)
    let keep_end =
      match groups.Journal.g_tail_start with
      | Some off -> min off prefix_end
      | None -> prefix_end
    in
    let dead_tail_bytes = s.Journal.file_size - keep_end in
    let frame_bytes fs =
      List.fold_left
        (fun acc f -> acc + 16 + String.length f.Journal.f_payload)
        0 fs
    in
    let stale_bytes = frame_bytes stale in
    let ahead_data =
      List.length
        (List.filter (fun f -> f.Journal.f_kind = Journal.Data) ahead)
    in
    let truncate_to =
      if
        committed = [] && quarantined = [] && ahead = []
        && (stale <> [] || dead_tail_bytes > 0)
      then Some 0
      else if dead_tail_bytes > 0 then Some keep_end
      else None
    in
    Ok
      ( groups.Journal.g_txns,
        {
          records_replayed = List.length committed;
          bytes_dropped = dead_tail_bytes + stale_bytes + frame_bytes ahead;
          txn_dropped = groups.Journal.g_dropped_records;
          torn_tail =
            Option.map
              (fun d -> d.Journal.d_reason)
              (Journal.tail_damage s);
          quarantined;
          ahead_dropped = ahead_data;
          stale_journal = stale <> [];
          snapshot_generation = None;
          io_retries = 0;
          epoch = snap_epoch;
        },
        truncate_to )

(* Rewrites the journal to contain exactly [txns], under [epoch], each
   transaction keeping its own commit marker. Used to drop a stale
   prefix, quarantined regions, or epoch-ahead leftovers while keeping
   the committed records. *)
let rewrite_journal ~io path ~epoch txns =
  let* () = Journal.truncate ~io path in
  let* j = Journal.open_ ~io ~sync:`Flush_only ~epoch path in
  let* () =
    Journal.append_batch j
      (List.map (List.map (fun f -> f.Journal.f_payload)) txns)
  in
  let* () = Journal.sync j in
  Journal.close j;
  Ok ()

(* The group-commit daemon that owns all physical appends to the
   journal. Its write callback is the only code path that touches the
   journal for appends; transient write errors are retried there.
   Re-appending a batch whose first attempt half-landed is safe: the
   scanner quarantines the torn bytes and resynchronizes on the retried
   frames' headers. *)
let make_daemon ~sync ~retry ~sleep ~retried ~active ~path journal records =
  let write txns =
    match !journal with
    | None -> fail (Io_error ("store closed: " ^ path))
    | Some j ->
      let* () =
        Retry.with_retry ~policy:retry ?sleep
          ~on_retry:(fun ~attempt:_ _ -> Atomic.incr retried)
          (fun () -> Journal.append_batch j txns)
      in
      records := List.fold_left (fun acc ps -> acc + List.length ps) !records txns;
      Ok ()
  in
  (* The commit window only pays off when the physical write is
     dominated by an fsync worth amortizing; leave it off for buffered
     policies where writes are near-free. The nap request is tiny
     because the OS floor rounds it up to tens of microseconds — about
     half an fsync — which is the hold we actually want. *)
  let coalesce = if sync = `Always_fsync then 1e-5 else 0. in
  Commit_daemon.create ~coalesce
    ~siblings:(fun () -> Atomic.get active)
    ~counts_fsync:(sync = `Always_fsync) write

let open_dir ?(io = Io.real) ?(sync = `Flush_only)
    ?(retry = Retry.default_policy) ?sleep dir =
  let retried = Atomic.make 0 in
  let count_retry () = Atomic.incr retried in
  let* () = ensure_dir dir in
  let* () = refuse_leftover_old ~io dir in
  let jpath = journal_path dir in
  let scan_with_retry () =
    Retry.with_retry ~policy:retry ?sleep
      ~on_retry:(fun ~attempt:_ _ -> count_retry ())
      (fun () -> Journal.scan ~io jpath)
  in
  (* the journal is read before anything on disk is touched, so a
     journal this version refuses (the retired frame layout) leaves the
     store exactly as it was *)
  let* scanned = scan_with_retry () in
  let* scanned =
    (* read-repair double check: damage may live in the read path (a
       flipped bit on the wire, a short read), not on the medium — only
       damage that survives a second read is trusted, so a transient
       fault never truncates or quarantines committed records *)
    if scanned.Journal.scan_damage = [] then Ok scanned
    else begin
      count_retry ();
      scan_with_retry ()
    end
  in
  let* snap, generation, primary_damaged =
    load_snapshot ~io ~retry ~sleep ~count_retry dir
  in
  let* () =
    (* set a damaged primary aside before promoting anything over it *)
    if primary_damaged && snap <> None then
      wrap_io (fun () ->
          io.Io.rename (snapshot_path dir) (quarantine_path dir))
    else Ok ()
  in
  let* () =
    (* normalize: promote the recovered copy so [snapshot.bin] is again
       the authoritative one (rename is atomic — a crash here is safe) *)
    match generation with
    | None -> Ok ()
    | Some k ->
      wrap_io (fun () ->
          io.Io.rename (generation_path dir k) (snapshot_path dir);
          io.Io.fsync_dir dir)
  in
  let* () =
    (* an interrupted snapshot write leaves [snapshot.bin.tmp] behind *)
    wrap_io (fun () ->
        if io.Io.exists (tmp_path dir) then begin
          io.Io.unlink (tmp_path dir);
          io.Io.fsync_dir dir
        end)
  in
  let snap_epoch = match snap with Some (e, _) -> e | None -> 0 in
  let* txns, report, truncate_to =
    classify ~snap_epoch ~allow_ahead:(generation <> None) ~path:jpath
      scanned
  in
  let* () =
    if report.ahead_dropped > 0 then
      (* epoch-ahead leftovers must not linger: a future compaction
         would reuse their epoch and mistake them for live records *)
      rewrite_journal ~io jpath ~epoch:snap_epoch txns
    else
      (* cut tail damage back so it does not persist into the next
         session; quarantined mid-file regions stay (fsck rewrites) *)
      match truncate_to with
      | Some len when scanned.Journal.file_size > len ->
        Journal.truncate ~io ~len jpath
      | _ -> Ok ()
  in
  let* j = Journal.open_ ~io ~sync ~epoch:snap_epoch jpath in
  let journal = ref (Some j) and records = ref report.records_replayed in
  let active = Atomic.make 0 in
  Ok
    ( {
        dir;
        io;
        sync_policy = sync;
        retry;
        sleep;
        epoch = snap_epoch;
        journal;
        records;
        daemon =
          make_daemon ~sync ~retry ~sleep ~retried ~active ~path:jpath journal
            records;
        retried;
        active;
      },
      Option.map snd snap,
      List.concat_map (List.map (fun f -> f.Journal.f_payload)) txns,
      {
        report with
        snapshot_generation = generation;
        io_retries = Atomic.get retried;
      } )

(* ------------------------------------------------------------------ *)
(* Writes                                                               *)
(* ------------------------------------------------------------------ *)

(* The in-flight writer count feeds the daemon's commit window: a
   leader holds its drain while other writers are still between here
   and their own enqueue. *)
let append_group t payloads =
  match payloads with
  | [] -> Ok ()
  | _ ->
    Atomic.incr t.active;
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.active)
      (fun () -> Commit_daemon.submit t.daemon payloads)

let append t payload = append_group t [ payload ]

let with_retry t f =
  Retry.with_retry ~policy:t.retry ?sleep:t.sleep
    ~on_retry:(fun ~attempt:_ _ -> Atomic.incr t.retried)
    f

(* The daemon is paused around direct journal access (sync, compaction):
   [Commit_daemon.pause] waits out the in-flight batch, so the journal
   is quiescent while we hold it. *)
let quiesced t f =
  Commit_daemon.pause t.daemon;
  Fun.protect ~finally:(fun () -> Commit_daemon.resume t.daemon) f

let sync t =
  quiesced t (fun () ->
      match !(t.journal) with
      | None -> fail (Io_error ("store closed: " ^ t.dir))
      | Some j -> with_retry t (fun () -> Journal.sync j))

let retries t = Atomic.get t.retried
let write_stats t = [ (0, Commit_daemon.stats t.daemon) ]

(* ------------------------------------------------------------------ *)
(* Compaction                                                           *)
(* ------------------------------------------------------------------ *)

(* Frees generation slot 1 for the snapshot being replaced: the oldest
   generation drops and slot 1 moves up to slot 2. Every operation is
   existence-guarded, so a young store pays nothing. *)
let rotate_generations t =
  wrap_io (fun () ->
      let io = t.io in
      let oldest = generation_path t.dir generations in
      if io.Io.exists oldest then io.Io.unlink oldest;
      let newest = generation_path t.dir 1 in
      if io.Io.exists newest then io.Io.rename newest oldest)

let close_journal t =
  match !(t.journal) with
  | None -> ()
  | Some j ->
    t.journal := None;
    Journal.close j

let reopen_journal t ~epoch =
  match !(t.journal) with
  | Some _ -> Ok ()
  | None ->
    let* j =
      Journal.open_ ~io:t.io ~sync:t.sync_policy ~epoch (journal_path t.dir)
    in
    t.journal := Some j;
    Ok ()

(* Until the new snapshot's directory fsync the renames before it may
   not be durable; either way open finds the previous snapshot under
   [snapshot.bin] or generation slot 1, at the journal's epoch, and
   promotes it. *)
let compact_quiesced t ~snapshot =
  close_journal t;
  let next = t.epoch + 1 in
  let io = t.io in
  let snap = snapshot_path t.dir and slot1 = generation_path t.dir 1 in
  let abort e =
    let* () = reopen_journal t ~epoch:t.epoch in
    Error e
  in
  (* steps 1-2: shift the generations up, then retire the current
     snapshot straight into slot 1 *)
  match
    let* () = rotate_generations t in
    wrap_io (fun () ->
        let retired = io.Io.exists snap in
        if retired then io.Io.rename snap slot1;
        retired)
  with
  | Error e -> abort e
  | Ok retired -> (
    (* step 3: write the new snapshot under the next epoch (tmp file,
       fsync, rename, directory fsync — all inside Snapshot_file) *)
    match
      with_retry t (fun () -> Snapshot_file.write ~io snap ~epoch:next snapshot)
    with
    | Error e ->
      (* back to the pre-compaction pair, also when the rename landed
         and only the directory fsync failed: a new-epoch snapshot next
         to the old-epoch journal would turn later appends stale *)
      (try
         if retired then io.Io.rename slot1 snap
         else if io.Io.exists snap then io.Io.unlink snap
       with Sys_error _ | Unix.Unix_error _ -> ());
      abort e
    | Ok () ->
      (* the new snapshot is durable: the store is at [next] from here
         on, even if truncation fails — recovery skips the now-stale
         journal by epoch mismatch *)
      t.epoch <- next;
      let truncated = Journal.truncate ~io (journal_path t.dir) in
      let* () = reopen_journal t ~epoch:next in
      t.records := 0;
      truncated)

let compact t ~snapshot = quiesced t (fun () -> compact_quiesced t ~snapshot)

let journal_size t = !(t.records)

let epoch (t : t) = t.epoch
let close t = close_journal t
let dir t = t.dir

(* ------------------------------------------------------------------ *)
(* Offline checking                                                     *)
(* ------------------------------------------------------------------ *)

type file_status =
  | Absent
  | Intact of { epoch : int; bytes : int }
  | Damaged of string

type fsck_report = {
  fsck_snapshot : file_status;
  fsck_generations : (int * file_status) list;
  fsck_tmp_leftover : bool;
  fsck_journal_frames : int;
  fsck_journal_epoch : int option;
  fsck_torn_bytes : int;
  fsck_torn_reason : string option;
  fsck_quarantined_regions : int;
  fsck_quarantined_bytes : int;
  fsck_stale_journal : bool;
  fsck_dangling_txn_records : int;
  fsck_dangling_txn_tail : bool;
  fsck_healthy : bool;
  fsck_repairs : string list;
}

let status_of_snapshot ~io path =
  match Snapshot_file.read ~io path with
  | Ok None -> Ok Absent
  | Ok (Some (epoch, payload)) ->
    Ok (Intact { epoch; bytes = String.length payload })
  | Error (Corrupt m) -> Ok (Damaged m)
  | Error e -> Error e

(* The generation slots on disk, present ones only (slots can be sparse
   after an interrupted rotation). *)
let generation_statuses ~io dir =
  let rec go k acc =
    if k > generations then Ok (List.rev acc)
    else
      let p = generation_path dir k in
      if not (io.Io.exists p) then go (k + 1) acc
      else
        let* st = status_of_snapshot ~io p in
        go (k + 1) ((k, st) :: acc)
  in
  go 1 []

let analyze ~io dir =
  let* () = ensure_dir dir in
  let* () = refuse_leftover_old ~io dir in
  let* snapshot = status_of_snapshot ~io (snapshot_path dir) in
  let* gens = generation_statuses ~io dir in
  let tmp = io.Io.exists (tmp_path dir) in
  let generation_epoch =
    List.find_map
      (function _, Intact { epoch; _ } -> Some epoch | _ -> None)
      gens
  in
  let reference =
    match (snapshot, generation_epoch) with
    | Intact { epoch; _ }, _ | _, Some epoch -> epoch
    | _, None -> 0
  in
  let* scanned = Journal.scan ~io (journal_path dir) in
  let frames = scanned.Journal.frames in
  let _, quarantined, groups, prefix_end = resolve_journal ~reference scanned in
  let stale = List.exists (fun f -> f.Journal.f_epoch < reference) frames in
  let ahead = List.exists (fun f -> f.Journal.f_epoch > reference) frames in
  let torn_bytes = scanned.Journal.file_size - prefix_end in
  let journal_frames = List.length (Journal.committed groups) in
  let gens_healthy =
    List.for_all
      (fun (_, st) -> match st with Intact _ -> true | _ -> false)
      gens
  in
  let healthy =
    (match snapshot with
    | Intact _ -> true
    | Absent -> generation_epoch = None (* open would promote it *)
    | Damaged _ -> false)
    && gens_healthy && (not tmp) && torn_bytes = 0 && quarantined = []
    && (not stale) && (not ahead)
    && groups.Journal.g_dropped_records = 0
  in
  Ok
    {
      fsck_snapshot = snapshot;
      fsck_generations = gens;
      fsck_tmp_leftover = tmp;
      fsck_journal_frames = journal_frames;
      fsck_journal_epoch =
        (match frames with f :: _ -> Some f.Journal.f_epoch | [] -> None);
      fsck_torn_bytes = torn_bytes;
      fsck_torn_reason =
        Option.map (fun d -> d.Journal.d_reason) (Journal.tail_damage scanned);
      fsck_quarantined_regions = List.length quarantined;
      fsck_quarantined_bytes = region_bytes quarantined;
      fsck_stale_journal = stale;
      fsck_dangling_txn_records = groups.Journal.g_dropped_records;
      fsck_dangling_txn_tail = groups.Journal.g_tail_start <> None;
      fsck_healthy = healthy;
      fsck_repairs = [];
    }

(* Repairs the journal against the (already repaired) snapshot's epoch:
   rewrites it when stale/ahead frames, mid-journal drops or quarantined
   damage are buried inside, otherwise truncates a dangling tail
   transaction and/or torn tail bytes. *)
let repair_journal ~io ~add ~reference dir =
  let act fmt = Printf.ksprintf add fmt in
  let jpath = journal_path dir in
  let* scanned = Journal.scan ~io jpath in
  let frames = scanned.Journal.frames in
  let live, quarantined, groups, prefix_end =
    resolve_journal ~reference scanned
  in
  let mid_dropped =
    groups.Journal.g_dropped_records - groups.Journal.g_tail_records
  in
  let torn_bytes = scanned.Journal.file_size - prefix_end in
  if
    List.length live <> List.length frames
    || mid_dropped > 0 || quarantined <> []
  then begin
    (* stale or epoch-ahead frames, dropped records buried mid-journal,
       or quarantined damage — rewrite with exactly the committed
       records the current snapshot can base *)
    let* () =
      rewrite_journal ~io jpath ~epoch:reference groups.Journal.g_txns
    in
    let other_epochs = List.length frames - List.length live in
    if other_epochs > 0 then
      act "journal.log: dropped %d frame(s) from other epochs" other_epochs;
    if quarantined <> [] then
      act "journal.log: excised %d quarantined damaged region(s) (%d byte(s))"
        (List.length quarantined) (region_bytes quarantined);
    if groups.Journal.g_dropped_records > 0 then
      act "journal.log: dropped %d uncommitted transaction record(s)"
        groups.Journal.g_dropped_records;
    Ok ()
  end
  else
    match groups.Journal.g_tail_start with
    | Some off ->
      (* the dangling transaction starts before any torn bytes, so one
         cut removes both *)
      let* () = Journal.truncate ~io ~len:(min off prefix_end) jpath in
      act
        "journal.log: truncated a dangling transaction (%d uncommitted \
         record(s), %d byte(s))"
        groups.Journal.g_tail_records
        (scanned.Journal.file_size - min off prefix_end);
      Ok ()
    | None ->
      if torn_bytes > 0 then begin
        let* () = Journal.truncate ~io ~len:prefix_end jpath in
        act "journal.log: truncated %d torn byte(s) off the tail" torn_bytes;
        Ok ()
      end
      else Ok ()

let repair_actions ~io dir report =
  let actions = ref [] in
  let act fmt = Printf.ksprintf (fun m -> actions := m :: !actions) fmt in
  let* () =
    if report.fsck_tmp_leftover then
      wrap_io (fun () ->
          io.Io.unlink (tmp_path dir);
          act "removed leftover snapshot.bin.tmp")
    else Ok ()
  in
  (* resolve the snapshot first; journal repairs depend on its epoch *)
  let newest_intact_generation =
    List.find_opt
      (fun (_, st) -> match st with Intact _ -> true | _ -> false)
      report.fsck_generations
  in
  let* () =
    match (report.fsck_snapshot, newest_intact_generation) with
    | (Absent | Damaged _), Some (k, _) ->
      (* no primary to stand on: fall back a generation *)
      wrap_io (fun () ->
          (match report.fsck_snapshot with
          | Damaged _ ->
            io.Io.rename (snapshot_path dir) (quarantine_path dir);
            act "quarantined unreadable snapshot.bin as snapshot.bin.corrupt"
          | _ -> ());
          io.Io.rename (generation_path dir k) (snapshot_path dir);
          io.Io.fsync_dir dir;
          act "promoted snapshot generation %d to snapshot.bin" k)
    | Damaged _, None ->
      wrap_io (fun () ->
          io.Io.rename (snapshot_path dir) (quarantine_path dir);
          io.Io.fsync_dir dir;
          act
            "quarantined unreadable snapshot.bin as snapshot.bin.corrupt (no \
             intact generation — its data is lost)")
    | _ -> Ok ()
  in
  let* () =
    (* a damaged generation can never be recovered from: drop it *)
    iter_result
      (fun (k, st) ->
        match st with
        | Damaged _ when io.Io.exists (generation_path dir k) ->
          wrap_io (fun () ->
              io.Io.unlink (generation_path dir k);
              act "removed damaged snapshot generation %d" k)
        | _ -> Ok ())
      report.fsck_generations
  in
  (* re-read the (possibly repaired) snapshot, then fix the journal *)
  let* snapshot = status_of_snapshot ~io (snapshot_path dir) in
  let reference =
    match snapshot with Intact { epoch; _ } -> epoch | _ -> 0
  in
  let* () =
    repair_journal ~io ~add:(fun m -> actions := m :: !actions) ~reference dir
  in
  Ok (List.rev !actions)

let fsck ?(io = Io.real) ?(repair = false) dir =
  let* report = analyze ~io dir in
  if (not repair) || report.fsck_healthy then Ok report
  else
    let* actions = repair_actions ~io dir report in
    let* after = analyze ~io dir in
    Ok { after with fsck_repairs = actions }

let pp_file_status ppf = function
  | Absent -> Fmt.pf ppf "absent"
  | Intact { epoch; bytes } -> Fmt.pf ppf "intact (epoch %d, %d bytes)" epoch bytes
  | Damaged m -> Fmt.pf ppf "DAMAGED: %s" m

let pp_fsck_report ppf r =
  Fmt.pf ppf "snapshot.bin:      %a@." pp_file_status r.fsck_snapshot;
  List.iter
    (fun (k, st) ->
      Fmt.pf ppf "snapshot.bin.%d:    %a (generation)@." k pp_file_status st)
    r.fsck_generations;
  if r.fsck_tmp_leftover then
    Fmt.pf ppf "snapshot.bin.tmp:  present (leftover of an interrupted write)@.";
  Fmt.pf ppf "journal.log:       %d live record(s)%s@." r.fsck_journal_frames
    (match r.fsck_journal_epoch with
    | Some e -> Printf.sprintf ", epoch %d" e
    | None -> ", empty");
  if r.fsck_stale_journal then
    Fmt.pf ppf "stale journal:     records predating the snapshot's epoch \
                (skipped on open)@.";
  if r.fsck_quarantined_regions > 0 then
    Fmt.pf ppf
      "quarantined:       %d damaged region(s), %d byte(s) (skipped on open, \
       excised by --repair)@."
      r.fsck_quarantined_regions r.fsck_quarantined_bytes;
  if r.fsck_torn_bytes > 0 then
    Fmt.pf ppf "torn tail:         %d byte(s) — %s@." r.fsck_torn_bytes
      (Option.value r.fsck_torn_reason ~default:"damaged");
  if r.fsck_dangling_txn_records > 0 then
    Fmt.pf ppf
      "dangling txn:      %d uncommitted record(s)%s (discarded on open)@."
      r.fsck_dangling_txn_records
      (if r.fsck_dangling_txn_tail then " in an unterminated tail transaction"
       else "");
  List.iter (fun a -> Fmt.pf ppf "repaired:          %s@." a) r.fsck_repairs;
  Fmt.pf ppf "status:            %s@."
    (if r.fsck_healthy then "healthy" else "NEEDS ATTENTION")
