(** Trigram positional index over string values — the access path behind
    [Query.contains]/[Query.matches] (DESIGN.md §14).

    Each indexed string (a document) is owned by exactly one carrier
    item. Containment is answered by intersecting the carriers of the
    needle's trigrams and then verifying positional alignment, which is
    exact: a carrier survives iff the literal needle occurs in its text.
    The intersection walks the rarest trigram's carriers in ascending
    order while every other needle trigram keeps a forward-only cursor
    into its own run, so a probe costs about the rarest run plus a short
    gallop per carrier and trigram, not a binary search of every run.

    The index is an immutable {e base} — flat arrays of documents and one
    sorted run of packed (document, offset) entries per trigram, built in
    one bulk pass — plus a small persistent {e delta}: the documents
    written since the last merge and a tombstone set of stale base
    carriers. A write updates only the delta; once the delta passes a
    fixed fraction of the base it is merged into a new base in one
    linear pass. Nothing reachable from a value is ever mutated, so the
    index rides inside the copy-on-write database root: snapshots freeze
    it for free, and transaction rollback restores it by root swap. *)

open Seed_util

type t

val empty : t
val is_empty : t -> bool

val doc_count : t -> int
(** Number of indexed carriers (documents). O(1). *)

val path_of : t -> Ident.t -> string option
(** The attribute (class) path recorded for a carrier. *)

val min_needle : int
(** Shortest needle the index can answer (3 bytes — one trigram).
    Shorter needles must fall back to a scan. *)

val build : ((Ident.t -> path:string -> string -> unit) -> unit) -> t
(** [build feed] indexes every document [feed] hands to its callback
    (in any order, each carrier once) as one bulk-built base with an
    empty delta. *)

val add_doc : t -> Ident.t -> path:string -> string -> t
(** Index a carrier's string value under its class path, replacing the
    carrier's previous document if it has one. Strings shorter than 3
    bytes contribute no trigrams but are still counted as documents.
    O(log n) plus, when the delta passes the merge point, a merge. *)

val remove_doc : t -> Ident.t -> t
(** Drop a carrier. No-op when the carrier is not indexed. *)

(** {1 Queries} *)

type probe = {
  pr_trigrams : int;  (** distinct needle trigrams consulted *)
  pr_postings : int;  (** base carriers across their runs *)
  pr_candidates : int;
      (** carriers surviving the intersection, plus the delta documents
          scanned *)
  pr_verified : int;  (** carriers surviving positional verification *)
}

val query : t -> ?path:string -> string -> Ident.Set.t
(** Exactly the carriers whose text contains the needle (restricted to
    carriers at [path] when given). Raises [Invalid_argument] when the
    needle is shorter than {!min_needle}. *)

val query_probe : t -> ?path:string -> string -> Ident.Set.t * probe
(** {!query} plus the access-path measurements [Query.explain]
    renders. *)

val estimate : t -> string -> int
(** Upper bound on the carriers {!query} would have to verify: over the
    needle's trigrams, the fewest base carriers of one trigram, plus the
    delta's size when that trigram occurs in the delta (0 when a trigram
    occurs nowhere). Exact while the delta is empty. Costs one lookup
    per needle trigram — the planner consults it to skip needles so
    common that walking their runs would cost more than the scan it
    replaces. Raises [Invalid_argument] below {!min_needle}. *)

val string_contains : string -> string -> bool
(** [string_contains hay needle] — the scan-side containment test the
    index is equivalent to. Empty needles match everything. Allocates
    nothing. *)

(** {1 Stats and equality} *)

type stats = {
  trigrams : int;  (** distinct trigrams in the base *)
  postings : int;
      (** (carrier, trigram) pairs in the base, stale ones included
          until the next merge *)
  positions : int;  (** trigram occurrences in the base, likewise *)
  docs : int;
  delta : int;  (** delta documents plus tombstones awaiting a merge *)
  merges : int;  (** merges since the last bulk build *)
  bytes : int;
      (** resident size: the base arrays' actual lengths, plus an
          estimate for the delta's map and set nodes *)
}

val stats : t -> stats

val equal : t -> t -> bool
(** Logical equality: the same documents under the same paths, however
    they are split between base and delta — used by the soak harness to
    check that the incrementally maintained index matches a bulk
    build. *)
