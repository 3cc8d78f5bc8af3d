(** The temporal XML database façade.

    Ties together the storage simulator, the document store, the temporal
    full-text indexes and the CreTime index, and runs the commit pipeline:
    normalize → diff → persist completed delta → replace current version →
    maintain indexes.  The query operators of [txq_core] run against this
    interface. *)

type t

type stats = {
  mutable commits : int;
  mutable deltas_read : int;
  mutable reconstructions : int;
  mutable reconstruct_cache_hits : int;
}

val create : ?config:Config.t -> ?clock:Txq_temporal.Clock.t -> unit -> t

val config : t -> Config.t
val clock : t -> Txq_temporal.Clock.t
val now : t -> Txq_temporal.Timestamp.t

(** {1 MVCC snapshots}

    A snapshot is an immutable read handle pinned at the version watermark
    of the moment it was taken: every read API on it — reconstruction,
    histories, pattern scans, the temporal algebra — answers exactly as the
    live database would have at capture time, however many commits the
    single writer performs afterwards.  Snapshots are cheap (bounded views
    over the shared version chains, no copies of content) and safe to use
    from their own domain, so many reader domains query concurrently while
    the writer commits.  One domain per snapshot handle; a pinned snapshot
    holds vacuum back from every document it can see until {!release}. *)

val snapshot : t -> t
(** Pins a snapshot of the current committed state.  The returned handle
    supports every read operation and raises [Invalid_argument] from every
    mutator.  Raises on a handle that is already a snapshot. *)

val release : t -> unit
(** Unpins the snapshot so vacuum may reclaim versions only it could see.
    Reading from a released snapshot is still safe until a later vacuum
    actually truncates.  Total and idempotent: releasing twice, or
    releasing the live handle, is a no-op — connection cleanup code calls
    this on every exit path, including error paths that may run more than
    once, and the pinned-snapshot accounting must stay exact regardless. *)

val is_snapshot : t -> bool

val is_replica : t -> bool
(** [true] while the handle is fed by {!Replay}: reads work (including
    {!snapshot}), mutators raise. *)

val is_released : t -> bool
(** [true] once a snapshot has been released; always [false] on the live
    handle. *)

val snapshot_watermark : t -> int option
(** Commit count at capture; [None] on the live handle. *)

val pinned_snapshots : t -> int
(** Snapshots currently pinned (live handle and snapshots agree). *)

val oldest_pinned_watermark : t -> int option
(** Smallest watermark among pinned snapshots — the vacuum hold-back
    horizon; [None] when nothing is pinned. *)

val with_read : t -> (unit -> 'a) -> 'a
(** Runs [f] holding the database's read lock, excluding the writer.
    Required around reads of writer-mutated shared structures (full-text
    fetches, CreTime lookups); re-entrant, and free when the calling
    domain already holds the write side. *)

(** {1 Ingestion}

    Each mutating call commits at the clock's current instant, or at [ts]
    when given ([ts] must advance the clock; transaction time is monotone).
    Timestamps of successive versions of one document must be distinct.

    The writer side is serialized internally: mutators take the write
    lock, so commits interleave safely with concurrent snapshot readers.
    With [Config.group_commit] on, concurrent committers (from different
    domains) buffer their journal records and one of them — the group
    leader — flushes the whole batch with a single durability point. *)

val insert_document :
  t -> url:string -> ?ts:Txq_temporal.Timestamp.t -> Txq_xml.Xml.t ->
  Txq_vxml.Eid.doc_id
(** Raises [Invalid_argument] if a live document already holds the URL. *)

val update_document :
  t -> url:string -> ?ts:Txq_temporal.Timestamp.t -> Txq_xml.Xml.t ->
  Txq_vxml.Delta.t
(** Commits a new version of the live document at [url]; returns the stored
    completed delta. *)

val delete_document :
  t -> url:string -> ?ts:Txq_temporal.Timestamp.t -> unit -> unit
(** Marks the live document at [url] deleted.  Raises [Invalid_argument]
    if none is live or [ts] does not advance past its newest version. *)

(** {1 Document access} *)

val find_live : t -> string -> Docstore.t option
(** The live document currently holding the URL. *)

val find_all : t -> string -> Docstore.t list
(** Every document that ever held the URL, oldest first (a URL is reused
    when a document is deleted and later re-created; EIDs are not). *)

val find_at :
  t -> string -> Txq_temporal.Timestamp.t -> (Docstore.t * int) option
(** Document and version number holding the URL at an instant. *)

val doc : t -> Txq_vxml.Eid.doc_id -> Docstore.t
(** Raises [Invalid_argument] on an unknown id. *)

val doc_opt : t -> Txq_vxml.Eid.doc_id -> Docstore.t option
(** [None] on an unknown id — on a snapshot, that includes documents
    inserted after the watermark (shared index postings may name them). *)

val doc_ids : t -> Txq_vxml.Eid.doc_id list
val document_count : t -> int

(** {1 Reconstruction} *)

val reconstruct : t -> Txq_vxml.Eid.doc_id -> int -> Txq_vxml.Vnode.t
(** Materializes one version: the one-version case of {!reconstruct_range}.
    Served from the version cache on a hit; on a miss the nearest cached
    version competes with the stored current version and snapshots as the
    reconstruction anchor, so only the deltas between the nearest anchor
    and the target are applied, each served from the delta residents of
    the cache when possible.  All blob reads are IO-accounted; [stats] and
    [io_stats] count the deltas applied. *)

val reconstruct_range :
  t -> Txq_vxml.Eid.doc_id -> lo:int -> hi:int ->
  (int * Txq_vxml.Vnode.t) list
(** Materializes every version in [\[lo, hi\]] (inclusive), newest first, in
    a single sweep: one delta application per step instead of one chain walk
    per version (the batched form of Section 7.3.3's reconstruction), and
    populates the version cache as it goes.  When every version is already
    resident the sweep is skipped entirely.  Empty if [lo > hi]. *)

val reconstruct_at :
  t -> Txq_vxml.Eid.doc_id -> Txq_temporal.Timestamp.t ->
  (int * Txq_vxml.Vnode.t) option

val read_delta : t -> Txq_vxml.Eid.doc_id -> int -> Txq_vxml.Delta.t
(** One completed delta (stats-accounted); used by operators that work
    directly on deltas (CreTime traversal, history sweeps).  Served from
    the version cache when resident; a miss reads and decodes the stored
    blob (IO-accounted) and makes it resident.  Raises [Invalid_argument]
    as {!Docstore.check_delta}. *)

(** {1 Index access (for the query operators)} *)

val fti : t -> Txq_fti.Fti.t
(** Raises [Invalid_argument] when the configuration maintains no
    version-content index. *)

val delta_fti : t -> Txq_fti.Delta_fti.t
(** Raises [Invalid_argument] when no delta-operation index is maintained. *)

val cretime : t -> Cretime_index.t option

val version_at : t -> Txq_vxml.Eid.doc_id -> Txq_temporal.Timestamp.t -> int option

(** {1 Vacuum}

    Retention vacuum (the paper's Section 7.4 space-reclamation side):
    per-document delta-chain prefixes that no retained version needs are
    squashed into a base snapshot, their blobs freed, and every derived
    index pruned to exactly what a rebuild of the truncated chains would
    produce.  External version numbers never change — version [v] of a
    document keeps its number for as long as it is retained, and accessors
    raise for vacuumed versions. *)

type vacuum_report = {
  vr_docs_squashed : int;
  vr_docs_dropped : int;  (** lifetime ended at or before the horizon *)
  vr_versions_dropped : int;
  vr_pages_freed : int;
  vr_bytes_reclaimed : int;  (** [vr_pages_freed * Disk.page_size] *)
  vr_postings_pruned : int;  (** version-content index postings removed *)
  vr_dfti_pruned : int;  (** delta-operation index entries removed *)
  vr_cretime_pruned : int;
}

val empty_vacuum_report : vacuum_report
(** All-zero report, as returned by a no-op vacuum. *)

val vacuum : ?retention:Config.retention -> t -> vacuum_report
(** Applies the retention policy ([retention] overrides the configured
    one; a policy with neither bound set is a no-op).  Crash-safe: base
    snapshots are written durably first, then a single [Vacuum] journal
    record commits the whole operation, then memory changes — recovery
    lands exactly before or exactly after the vacuum, never between.
    A deleted document whose deletion time is at or before the horizon is
    dropped entirely.  Queries over the retained window are unaffected;
    CreTime answers clamp to "at or before the truncation point" when the
    true creation instant was vacuumed (see {!Txq_core.Lifetime}). *)

val verify : t -> (int, string list) result
(** Full integrity check: the stored current version must decode to the
    in-memory current tree including XIDs (that tree anchors
    reconstruction), every version of every document is reconstructed
    from its persisted delta chain, timestamps must be strictly monotone,
    and no blob may fail to decode.  Returns the number of versions checked
    or the list of diagnostics.  (Corruption surfaces as decode failures —
    the completed-delta chain has no other redundancy to detect it.) *)

(** {1 Crash recovery} *)

val recover : Txq_store.Disk.t -> Config.t -> t
(** Rebuilds a database from the disk image alone, as after a crash: scans
    for the commit journal, discards any record a crash left incomplete,
    and replays the committed ones — document chains, blob directory and
    free lists, URL directory, full-text and CreTime indexes —
    to a state equivalent to the last committed operation.  A tail of
    records that do not decode is dropped from replay and truncated from
    the journal before anything appends behind it; an undecodable record
    with decodable ones after it raises [Failure].  Works equally on an
    uncrashed disk (clean restart).  [config] must describe the same
    layout the database was created with (placement policy, durability);
    index maintenance knobs take effect on the rebuilt state.  Requires a
    database created with a [`Journal] durability configuration — a disk
    without journal records recovers to an empty database. *)

val journal : t -> Txq_store.Journal.t option
(** The commit journal, when the configuration enables one (its page count
    is the durability storage overhead). *)

(** {1 Journal shipping}

    A primary streams its committed journal records — with the logical
    contents of the blobs they reference — to replicas that replay them
    incrementally through {!Replay}.  Shipment [i] is record [i] of the
    journal, read back from the journal's pages: recovery truncates an
    undecodable tail from the journal as well as from replay, so the two
    index spaces are one, and a replica's resume position is simply how
    many records it has applied. *)

exception Ship_gap of int
(** Raised by {!ship} when the record at the given index references history
    a vacuum has already truncated.  The shipper must re-clone from the
    current state — the same contract as a base backup predating the
    retained WAL. *)

val durable_records : t -> int
(** How many journal records are durable (and therefore shippable).
    Equals the applied-record count except under group commit, where
    buffered records are excluded until their batch syncs. *)

val ship :
  t -> from:int -> ?limit:int -> unit -> Journal_record.shipment list
(** Shipments [from .. min (from + limit) (durable_records t)), in order
    ([limit] defaults to 256; empty when [from] is at the durable
    watermark).  Payloads are read from the journal; contents are
    regenerated from the document chains ([Codec]/[Delta] encoding is
    deterministic, so regenerated bytes equal the originals).  Raises
    {!Ship_gap} when a vacuum truncated the chain a record's contents come
    from, and [Invalid_argument] on a store without a journal. *)

exception Replay_error of string
(** A shipment that cannot be applied: out-of-order index, undecodable
    payload or contents, or a record that fails the checks a live write
    meets against the replica's state — an insert at a live URL, a commit
    or deletion of a deleted document, a version that is not the next one,
    a timestamp that does not advance (all symptoms of feeding a replica
    from the wrong primary or a corrupted stream). *)

(** A replica: a live database advancing record-by-record under shipped
    journal records.  Reads go through the ordinary query surface of
    {!Replay.db} — including {!snapshot} — while mutators raise; every
    applied record is journaled locally first, so a replica killed at any
    record boundary reopens with {!recover} and resumes with
    {!Replay.of_db}. *)
module Replay : sig
  type r

  val create : ?config:Config.t -> unit -> r
  (** A fresh, empty replica.  [config] is taken from the primary but
      forced to journaling durability with plain (non-group) appends: a
      record must be locally durable before it counts as applied. *)

  val of_db : t -> r
  (** Resumes replication onto a {!recover}ed replica store: the recovered
      record count is the resume position ({!applied}).  Raises
      [Invalid_argument] on a snapshot handle or a store without a
      journal. *)

  val db : r -> t
  (** The live replica database, for reads.  Mutators raise
      [Invalid_argument] while the replica is attached. *)

  val applied : r -> int
  (** Records applied so far — the [from] for the next {!ship} pull. *)

  val apply : r -> Journal_record.shipment -> unit
  (** Applies one shipment at the replica's current position.  A shipment
      below {!applied} is skipped silently (poll overlap); one beyond it
      raises {!Replay_error} (a gap must never be papered over).  A
      [Vacuum] record first waits for local snapshot pins to drain — the
      primary's vacuum could not see this replica's readers. *)

  val detach : r -> t
  (** Ends replication and returns the store as an ordinary writable
      database (promotion).  Its clock sits at the newest applied
      timestamp, so the first post-promotion commit is stamped strictly
      after everything replicated. *)
end

val restore_as_of : t -> as_of:Txq_temporal.Timestamp.t -> t
(** Point-in-time restore: a fresh store holding exactly the commits whose
    transaction time is at or before [as_of] ({e inclusive}, matching
    [version_at]'s boundary rule), built by replaying the primary's
    shipped records.  The result is writable; its clock resumes after the
    restored watermark, so new commits never collide with restored
    history.  Raises [Failure] when the needed history was vacuumed away
    on the source (see {!Ship_gap}). *)

(** {1 Accounting} *)

val stats : t -> stats
val io_stats : t -> Txq_store.Io_stats.t
val reset_io : t -> unit
val flush_cache : t -> unit
(** Empties buffer pool and reconstruction cache (cold-start measurements).
*)

val live_pages : t -> int
val blobs : t -> Txq_store.Blob_store.t

val disk : t -> Txq_store.Disk.t
(** The simulated disk beneath everything; exposed for diagnostics and for
    the failure-injection tests (which corrupt pages and expect {!verify}
    to notice). *)

(**/**)

val version_cache_for_tests : t -> Vcache.t
(** The version cache shared by the handle and its snapshots, so tests can
    inspect which trees and deltas are resident.  Tests only. *)
