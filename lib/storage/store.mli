(** Snapshot + journal composition: the persistence engine.

    A store lives in a directory holding [snapshot.bin] and
    [journal.log], plus [snapshot.bin.1] and [snapshot.bin.2] — the two
    previous snapshot {e generations}, newest first, kept for fallback —
    and, transiently, [snapshot.bin.tmp] while a new snapshot is being
    written. The client supplies a pure fold over its own state: opening a store
    loads the snapshot (if any) and replays the journal records appended
    since; {!append_group} adds a transaction; {!compact} writes a fresh
    snapshot and truncates the journal. All payloads are opaque strings —
    {!Seed_core.Persist} owns the encoding.

    {b Write path.} One journal, one group-commit daemon
    ({!Commit_daemon}): concurrently arriving transactions coalesce into
    one physical write and one fsync. Each transaction is handed to the
    daemon as its list of record payloads; only {!Journal} knows the
    frame layout.

    {b Crash consistency.} Every compaction bumps a monotonically
    increasing {e epoch}, stamped on the snapshot header and on every
    journal frame. On open, a journal whose epoch predates the
    snapshot's is a leftover of a crash mid-compaction: its records are
    already folded into the snapshot, so it is skipped (and truncated)
    instead of replayed — correctness no longer rests on replay being
    idempotent. Compaction shifts the generations up (the oldest drops),
    renames [snapshot.bin] straight into generation slot 1, writes the
    new snapshot (tmp file, fsync, rename, directory fsync) and
    truncates the journal. A crash at any point leaves at least one
    intact snapshot/journal pair: before the new snapshot lands, open
    finds the previous one in slot 1 at the journal's epoch and
    promotes it. Media corruption of the newest snapshot still leaves
    the generations to fall back on.

    {b Retired layout.} Earlier versions parked the previous snapshot
    in [snapshot.bin.old] mid-compaction. A store still holding one is
    refused ([Corrupt]) by {!open_dir} and {!fsck}, with nothing on
    disk changed: it may hold the newest acknowledged epoch.

    {b Self-healing recovery.} Transient I/O errors (EINTR class) are
    retried with bounded backoff ({!Seed_util.Retry}); journal damage
    found on open is re-read once before being trusted, so a flipped bit
    or short read on the wire never costs committed data. Real damage is
    handled by severity: a torn tail is truncated, a corrupt mid-file
    region is {e quarantined} — skipped by magic/CRC resynchronization,
    left in place for [fsck --repair] to excise — and an unreadable
    snapshot falls back generation by generation (the damaged primary is
    set aside as [snapshot.bin.corrupt]). The {!recovery} report says
    what open found and did. *)

type t

type sync_policy = Journal.sync_policy
(** Durability of {!append}; see {!Journal.sync_policy}. *)

type recovery = {
  records_replayed : int;  (** journal records handed back to the client *)
  bytes_dropped : int;
      (** journal bytes discarded: a torn tail, an uncommitted
          transaction, a stale journal and/or epoch-ahead
          leftovers *)
  txn_dropped : int;
      (** records discarded because their transaction never
          committed — the all-or-nothing contract of
          {!Journal.append_group} *)
  torn_tail : string option;
      (** why the journal's tail was cut, when it was *)
  quarantined : Journal.damage list;
      (** corrupt mid-journal regions skipped by resynchronization and
          left in place (fsck [--repair] excises them) *)
  ahead_dropped : int;
      (** records stamped with an epoch newer than the recovered
          snapshot — appended after a snapshot that was later lost —
          and therefore unreplayable *)
  stale_journal : bool;
      (** a whole journal predating the snapshot's epoch was skipped *)
  snapshot_generation : int option;
      (** the generation slot the state came from, when [snapshot.bin]
          was missing or unreadable ([None]: from [snapshot.bin], or no
          snapshot at all) *)
  io_retries : int;
      (** transient I/O errors absorbed by retry during open *)
  epoch : int;  (** the store's compaction epoch after open *)
}

val recovery_clean : recovery -> bool
(** No bytes dropped or quarantined, no stale journal, no generation
    fallen back to.
    Absorbed transient retries do not make a recovery unclean. *)

val pp_recovery : Format.formatter -> recovery -> unit

val open_dir :
  ?io:Io.t ->
  ?sync:sync_policy ->
  ?retry:Seed_util.Retry.policy ->
  ?sleep:(float -> unit) ->
  string ->
  (t * string option * string list * recovery, Seed_util.Seed_error.t)
  result
(** [open_dir dir] creates [dir] if needed and returns
    [(store, snapshot_payload, journal_records, recovery)] — everything
    needed to rebuild the client state, plus what recovery had to do to
    get there. [sync] (default [`Flush_only]) governs {!append};
    [retry]/[sleep] the transient-fault retry policy and its clock.
    The store is checked before anything on disk changes: a journal in
    the retired version-3 frame layout, or a leftover
    [snapshot.bin.old], is refused ([Corrupt]) with the store left byte
    for byte as it was. Open removes a leftover [snapshot.bin.tmp] and
    promotes the generation it recovered from back to [snapshot.bin]. *)

val append : t -> string -> (unit, Seed_util.Seed_error.t) result
(** [append t r] is [append_group t [r]]: a one-record transaction. *)

val append_group : t -> string list -> (unit, Seed_util.Seed_error.t) result
(** Appends the records as one atomic transaction with the store's
    {!sync_policy}, through the group-commit daemon (concurrent
    transactions coalesce into shared writes and fsyncs): recovery
    replays either all of them or none, never a prefix. An empty list
    is a no-op. Transient I/O errors are retried; a half-written first
    attempt is quarantined by the scanner and resynchronized over on
    recovery, so the retry cannot corrupt. See
    {!Journal.append_group}. *)

val sync : t -> (unit, Seed_util.Seed_error.t) result
(** Makes every appended record durable (fsync of the journal, the
    daemon quiesced around it). *)

val write_stats : t -> (int * Commit_daemon.stats) list
(** The group-commit counters as one [(0, stats)] element: transactions
    submitted, physical batches, fsyncs, largest coalesced batch, queue
    high-water. The list shape lets callers fold with
    {!Commit_daemon.add_stats}. *)

val compact : t -> snapshot:string -> (unit, Seed_util.Seed_error.t) result
(** Atomically replaces the snapshot with [snapshot] (under the next
    epoch), retires the previous snapshot into generation slot 1
    (shifting slot 1 to slot 2 and dropping the old slot 2), and
    truncates the journal. If the new snapshot cannot be written, the
    previous one is renamed back and the store stays usable on its
    pre-compaction state; a crash anywhere inside is recovered by
    {!open_dir} via the epoch check and the generation slots. *)

val journal_size : t -> int
(** Records appended since the last compaction (this process's view). *)

val epoch : t -> int
(** The store's current compaction epoch. *)

val retries : t -> int
(** Transient I/O errors absorbed by retry over the store's lifetime
    (including the ones during open). *)

val close : t -> unit

val dir : t -> string

(** {2 Offline checking} *)

type file_status =
  | Absent
  | Intact of { epoch : int; bytes : int }
  | Damaged of string

type fsck_report = {
  fsck_snapshot : file_status;
  fsck_generations : (int * file_status) list;
      (** generation slots present on disk ([snapshot.bin.k]) *)
  fsck_tmp_leftover : bool;  (** [snapshot.bin.tmp] exists *)
  fsck_journal_frames : int;
      (** committed data frames of the snapshot's epoch *)
  fsck_journal_epoch : int option;  (** epoch of the journal's first frame *)
  fsck_torn_bytes : int;  (** bytes of damage reaching end of file *)
  fsck_torn_reason : string option;
  fsck_quarantined_regions : int;
      (** corrupt mid-journal regions (skipped on open, excised by
          [--repair]) *)
  fsck_quarantined_bytes : int;
  fsck_stale_journal : bool;  (** journal epoch predates the snapshot *)
  fsck_dangling_txn_records : int;
      (** records of transactions that never committed — invisible to
          replay, removed by [--repair] *)
  fsck_dangling_txn_tail : bool;
      (** the journal ends inside an unterminated transaction (the
          classic crash-mid-flush signature) *)
  fsck_healthy : bool;
  fsck_repairs : string list;  (** actions taken (with [~repair:true]) *)
}

val fsck :
  ?io:Io.t -> ?repair:bool -> string ->
  (fsck_report, Seed_util.Seed_error.t) result
(** Reports the health of the store at [dir] without opening it for
    appending. With [repair]: truncates a torn tail, a stale journal or
    a dangling (uncommitted) transaction, rewrites the journal to
    excise quarantined mid-file damage, removes a leftover
    [snapshot.bin.tmp] and damaged generations, promotes the newest
    intact generation when [snapshot.bin] is missing or unreadable, and
    quarantines an unreadable snapshot (as [snapshot.bin.corrupt]) —
    after which {!open_dir} succeeds. A store in a retired layout (a
    version-3 journal, a leftover [snapshot.bin.old]) is refused
    ([Corrupt]) with or without [repair], and nothing on disk changes.
    All file access goes through [io] (default {!Io.real}). *)

val pp_fsck_report : Format.formatter -> fsck_report -> unit
