(** Append-only journal with CRC-framed, epoch-tagged records.

    Frame layout (little-endian):
    [magic u32 | epoch u32 | payload length u32 | crc32 | payload], the
    CRC covering the epoch, the length and the payload.

    The {e epoch} is the compaction epoch the record belongs to: a store
    bumps it on every successful compaction and tags the snapshot header
    with the same number, so a stale journal left behind by a crash
    mid-compaction is detected by epoch mismatch and skipped rather than
    replayed (see {!Store}).

    {e One transaction encoding.} Every transaction, of one record or
    many, is written as its data frames followed by one commit marker —
    a frame under its own magic whose payload is the record count and a
    CRC over the data frames' CRCs — in a single write.
    Recovery ({!resolve_groups}) replays a transaction only when all of
    it, commit marker included, made it to disk: a crash mid-write
    durably persists {e none} of it. A data frame that no valid commit
    marker closes is never replayed.

    Recovery reads frames until end of file. Damage (partial frame, bad
    magic, CRC mismatch) does not stop the scan: the reader records the
    damaged region, hunts forward for the next offset where a whole
    valid frame parses (magic + CRC resync), and continues — corrupt
    mid-file frames are {e quarantined}, not fatal. Damage that reaches
    end of file is the classic torn tail, truncatable as before.

    A journal holding frames of the retired version-3 layout (["SEE3"]
    bare data frames, ["SEEC"] solo and begin/commit markers) is refused
    by {!scan} rather than read, because none of its records would
    carry a version-4 commit marker. *)

type t
(** An open journal, positioned for appending. *)

type sync_policy = [ `Always_fsync | `Flush_only | `None ]
(** Durability of {!append}:
    - [`Always_fsync] — every append is written and fsync'd before
      returning; an acknowledged record survives any crash.
    - [`Flush_only] — every append is written to the OS before
      returning; it survives a process crash but not a power failure
      before the next {!sync}.
    - [`None] — appends accumulate in memory until {!sync} or {!close};
      fastest, loses unsynced records even on a clean process crash. *)

val open_ :
  ?io:Io.t -> ?sync:sync_policy -> ?epoch:int -> string ->
  (t, Seed_util.Seed_error.t) result
(** Opens (creating if necessary) the journal at [path] for appending.
    Records are tagged with [epoch] (default 0); durability of appends
    follows [sync] (default [`Flush_only]). *)

val append : t -> string -> (unit, Seed_util.Seed_error.t) result
(** Appends one record as a one-record transaction, with the durability
    of the journal's {!sync_policy}. *)

val append_group : t -> string list -> (unit, Seed_util.Seed_error.t) result
(** Appends the records as one atomic transaction — [records…; commit
    marker] — in a single write (and, under [`Always_fsync], a single
    fsync), so recovery sees either all of them or none. An empty list
    is a no-op. *)

val append_batch :
  t -> string list list -> (unit, Seed_util.Seed_error.t) result
(** Appends a batch of independent transactions in {e one} physical
    write (and, under [`Always_fsync], one fsync) — the group-commit
    coalescing primitive used by {!Commit_daemon}. Each transaction
    keeps its own atomicity: a crash mid-batch leaves every one either
    whole or invisible to recovery. Empty transactions are skipped. *)

val sync : t -> (unit, Seed_util.Seed_error.t) result
(** Writes any buffered records and fsyncs the journal file. *)

val close : t -> unit
(** Best-effort: buffered records are written if possible, then the
    descriptor is released. Errors are swallowed — call {!sync} first
    when durability matters. *)

val path : t -> string
val epoch : t -> int
val sync_policy : t -> sync_policy

(** {2 Recovery-side reads} *)

type kind =
  | Data  (** an ordinary record *)
  | Commit of { count : int; crc : int32 }
      (** closes a transaction: its last [count] data frames, [crc] over
          their frame CRCs *)

type frame = {
  f_epoch : int;  (** compaction epoch the record was appended under *)
  f_payload : string;
  f_offset : int;  (** byte offset of the frame's header in the file *)
  f_crc : int32;  (** the frame's CRC, as verified by {!scan} *)
  f_kind : kind;
}

type damage = {
  d_offset : int;  (** where the damaged region starts *)
  d_end : int;
      (** where scanning resynchronized (equals the file size when no
          later frame boundary was found — a torn tail) *)
  d_reason : string;  (** e.g. ["truncated payload"], ["crc mismatch"] *)
}

type scan_result = {
  frames : frame list;  (** intact frames, in append order *)
  scan_damage : damage list;
      (** damaged regions, in file order; [[]] when the file is intact *)
  file_size : int;
}

val scan : ?io:Io.t -> string -> (scan_result, Seed_util.Seed_error.t) result
(** Reads every intact frame of the journal at [path], skipping over
    damaged regions by magic/CRC resynchronization. A missing file
    yields an empty, undamaged result. Damage is data, reported in the
    result; the errors are I/O failures and a journal in the retired
    version-3 layout ([Corrupt], naming that layout). *)

val tail_damage : scan_result -> damage option
(** The damaged region reaching end of file, if any — a torn tail that
    can be repaired by truncating at its [d_offset]. *)

val quarantined : scan_result -> damage list
(** Mid-file damaged regions (everything but the {!tail_damage}):
    skipped during replay and left in place, pending {!Store.fsck}
    [~repair] rewriting the journal. *)

type groups = {
  g_txns : frame list list;
      (** committed transactions in append order, each its data frames *)
  g_dropped_records : int;
      (** data records discarded because no valid commit marker closed
          them: a missing marker, or one whose count/CRC did not match *)
  g_tail_records : int;
      (** of the dropped records, how many sit after the last commit
          marker, at the very end of the frame list *)
  g_tail_start : int option;
      (** offset of the first of those tail records — the natural
          truncation point *)
}

val committed : groups -> frame list
(** The data frames safe to replay, in append order. *)

val resolve_groups : ?damage:damage list -> frame list -> groups
(** Resolves transactions over {!scan}'s intact frames. A commit marker
    for [count] records commits the last [count] data frames before it
    when their frame CRCs match its CRC; earlier uncommitted frames are
    orphans and are dropped. A [damage] region between two frames is a
    barrier no transaction spans: the data frames before it that are
    still waiting for their commit marker are dropped. *)

val read_all : string -> (string list, Seed_util.Seed_error.t) result
(** Committed payloads of {!scan}'s intact prefix, epoch-agnostic.
    Records of uncommitted groups are not returned. *)

val read_all_strict : string -> (string list, Seed_util.Seed_error.t) result
(** Like {!read_all} but any malformed byte — including a torn tail —
    is an error. Used by tests. *)

val truncate :
  ?io:Io.t -> ?len:int -> string -> (unit, Seed_util.Seed_error.t) result
(** Cuts the journal at [path] to [len] bytes (default 0, creating the
    file if missing), then fsyncs the file and its directory so the cut
    — and with it, compaction — is durable before the caller proceeds. *)
