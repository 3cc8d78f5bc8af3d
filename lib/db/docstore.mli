(** Per-document version storage (Section 7.1).

    A stored document consists of one complete current version plus a chain
    of completed deltas, each persisted as a separate XML document in the
    blob store.  The {e delta index} — the in-memory array mapping version
    numbers to timestamps and delta blobs — is exactly the structure the
    paper describes; optional intermediate snapshots bound reconstruction
    cost (Section 7.3.3). *)

type t

type reconstruct_cost = {
  deltas_applied : int;
  anchor : [ `Current | `Snapshot | `Cached ];
      (** where the walk started: the in-memory current tree, a stored
          snapshot, or a caller-supplied cached tree *)
  direction : [ `Backward | `Forward | `None ];
}

type committed_blobs = {
  cb_delta : Txq_store.Blob_store.blob;  (** the completed delta *)
  cb_current : Txq_store.Blob_store.blob;  (** the new current version *)
  cb_snapshot : Txq_store.Blob_store.blob option;
  cb_freed : int list;
      (** pages of the superseded current version — still intact when the
          commit hook runs, released immediately after *)
}
(** What a commit wrote, handed to the [on_durable] hook of {!commit} at the
    commit point (all blobs written, nothing in memory changed yet).  The
    database's journal serializes this into its commit record. *)

val create :
  blobs:Txq_store.Blob_store.t ->
  doc_id:Txq_vxml.Eid.doc_id ->
  url:string ->
  ts:Txq_temporal.Timestamp.t ->
  snapshot:bool ->
  ?doc_time:Txq_temporal.Timestamp.t ->
  Txq_xml.Xml.t ->
  t
(** Ingests version 0 (the input is normalized first).  [doc_time] is the
    content-embedded document time extracted by the caller (Section 3.1). *)

val doc_id : t -> Txq_vxml.Eid.doc_id
val url : t -> string
val mark_used : t -> Txq_vxml.Xid.t list -> unit
(** Advances the document's XID generator past the given ids, so later
    commits never reuse one (Section 3.2). *)

val commit :
  ?on_durable:(committed_blobs -> unit) ->
  ?free:(Txq_store.Blob_store.blob -> unit) ->
  t ->
  ts:Txq_temporal.Timestamp.t ->
  snapshot:bool ->
  ?doc_time:Txq_temporal.Timestamp.t ->
  Txq_xml.Xml.t ->
  Txq_vxml.Delta.t * Txq_vxml.Vnode.t
(** Diffs the incoming revision against the current version, stores the
    completed delta, replaces the stored current version, and appends to the
    delta index.  [snapshot] additionally persists the full new version.
    Returns the delta (renumbered) and the new current tree.  Raises
    [Invalid_argument] if the document was deleted or [ts] does not advance.

    Write ordering: {e every} blob is written before any in-memory
    structure (delta index, free list, current pointer) changes.
    [on_durable] runs exactly at that boundary; if it raises, the document
    is left as if the commit never started (modulo unreachable pages).

    [free] overrides the release of the superseded current version's blob:
    instead of freeing it through the blob store at the commit point, the
    blob is handed to [free].  Group commit uses this to defer the free
    until the buffered journal record is durable — recovery onto a prefix
    without this commit still needs those pages intact. *)

val mark_deleted : t -> ts:Txq_temporal.Timestamp.t -> unit
val deleted_at : t -> Txq_temporal.Timestamp.t option
val is_alive : t -> bool

val current : t -> Txq_vxml.Vnode.t
(** In-memory current version (no IO accounted). *)

val current_blob : t -> Txq_store.Blob_store.blob
(** The stored current version's blob (journaling reads its page list). *)

val snapshot_blob : t -> int -> Txq_store.Blob_store.blob option
(** The snapshot blob persisted with a version, if any. *)

val bounded : t -> t
(** A read-only view of the document pinned at the current version count.
    The view shares the (append-only) delta index with the live store but
    captures [current], [first_version] and the deletion mark, so a writer
    committing new versions or marking the document deleted never changes
    what the view reads.  Mutators ([commit], [mark_deleted], vacuum
    operations) raise [Invalid_argument] on a view.  The view stays valid
    only while no vacuum truncates versions below its pin — the database's
    snapshot registry holds vacuum back.  [bounded] on a view returns it
    unchanged. *)

val is_bounded : t -> bool
(** True for read-only views produced by {!bounded}. *)

val version_count : t -> int
(** Versions 0 .. n-1; the current one is n-1.  Version numbers are stable
    across vacuums: the count includes vacuumed versions, which can no
    longer be read. *)

val first_version : t -> int
(** First retained version (0 until a vacuum truncates the prefix).
    Versions below it raise [Invalid_argument] from every accessor. *)

val ts_of_version : t -> int -> Txq_temporal.Timestamp.t
val version_at : t -> Txq_temporal.Timestamp.t -> int option
(** Version valid at the instant, [None] before creation or at/after
    deletion. *)

val version_interval : t -> int -> Txq_temporal.Interval.t
(** Validity interval of a version: [\[ts_v, ts_v+1)], the last one closed
    by the deletion time or open-ended. *)

val versions_overlapping :
  t -> t1:Txq_temporal.Timestamp.t -> t2:Txq_temporal.Timestamp.t ->
  (int * int) option
(** [(v_lo, v_hi)]: the inclusive range of versions whose validity overlaps
    [\[t1, t2)]; [None] when no version does. *)

val created_at : t -> Txq_temporal.Timestamp.t
(** Timestamp of the first {e retained} version — the creation time only
    while [first_version] is 0. *)

val doc_time_of_version : t -> int -> Txq_temporal.Timestamp.t option
(** The document time recorded with the version, if any. *)

val snapshot_versions : t -> int list

val check_delta : t -> int -> unit
(** Raises [Invalid_argument] unless a delta leading to the given version
    is retained and visible through this handle: the version lies above
    {!first_version} and below {!version_count}. *)

val read_delta : t -> int -> Txq_vxml.Delta.t
(** Reads and decodes the delta leading to the given version from the blob
    store (IO accounted).  Raises as {!check_delta}. *)

val read_delta_bytes : t -> int -> string
(** The stored form of that delta, undecoded: the XML document
    {!Txq_vxml.Delta.encode} wrote (IO accounted). *)

val reconstruct :
  ?cached:int * Txq_vxml.Vnode.t -> ?read_delta:(int -> Txq_vxml.Delta.t) ->
  t -> int -> Txq_vxml.Vnode.t * reconstruct_cost
(** Materializes the given version, choosing the cheapest anchor among the
    in-memory current tree ({!current}, no blob read), any stored
    snapshots, and an optional already-materialized [cached] version
    supplied by the caller, applying completed deltas backward or forward
    (Section 7.3.3).  A cached anchor wins cost ties against a snapshot —
    it needs no blob read.  Each delta comes from [read_delta] (the
    database passes its delta cache; only versions inside the retained
    chain are asked for), by default {!read_delta} on the blob store.  All
    blob reads are accounted. *)

val reconstruct_range :
  ?cached:int * Txq_vxml.Vnode.t -> ?read_delta:(int -> Txq_vxml.Delta.t) ->
  t -> lo:int -> hi:int -> f:(int -> Txq_vxml.Vnode.t -> unit) -> int
(** Materializes {e every} version in [\[lo, hi\]] in a single sweep — one
    delta application per step instead of one full walk per version — and
    hands each to [f] (order unspecified; an interior anchor walks outward
    both ways).  Anchor selection as in {!reconstruct}, minimizing total
    applications: an anchor inside the range attains the [hi - lo] minimum.
    Deltas come from [read_delta] as in {!reconstruct}.  Returns the number of deltas applied.  Raises [Invalid_argument] on an
    empty or out-of-bounds range. *)

(** {1 Vacuum} *)

type rebase = {
  rb_base : int;  (** new first retained version *)
  rb_snapshot : Txq_store.Blob_store.blob option;
      (** freshly written base snapshot, if one was needed *)
  rb_freed : int list;  (** pages the rebase will release *)
  rb_versions_dropped : int;
}

val prepare_rebase : t -> base:int -> rebase
(** Plans the truncation of every version below [base]: writes a durable
    base snapshot when version [base] has neither a stored snapshot nor the
    current blob as anchor, and lists the pages of the dropped delta and
    snapshot blobs (including the delta leading {e into} [base], which can
    never be applied again).  No in-memory state changes — on a crash before
    the vacuum journal record commits, the new snapshot is simply an
    unreachable blob that recovery's liveness scan frees.  Raises
    [Invalid_argument] unless [first_version t < base < version_count t]. *)

val apply_rebase :
  t -> free:(Txq_store.Blob_store.blob -> unit) -> rebase -> unit
(** Commits a rebase in memory: hands each dropped blob to [free],
    installs the base snapshot, truncates the delta index and advances
    [first_version]. *)

val xid_watermark : t -> int
(** Highest XID the document's generator has handed out — persisted in the
    vacuum journal record so recovery never reuses an id that only ever
    appeared in a vacuumed delta. *)

val all_blob_pages : t -> int list
(** Pages of every blob of the document (current, deltas, snapshots) — what
    dropping the whole document frees. *)

val apply_drop : t -> free:(Txq_store.Blob_store.blob -> unit) -> unit
(** Hands every blob of the document to [free].  The docstore is defunct
    afterwards and must be unlinked from the database's tables. *)

(** {1 Journal replay}

    Rebuilding a document record by record from the commit journal, over
    blobs the caller has already written (a replica) or found on disk
    (crash recovery). *)

val restore :
  blobs:Txq_store.Blob_store.t ->
  doc_id:Txq_vxml.Eid.doc_id ->
  url:string ->
  ts:Txq_temporal.Timestamp.t ->
  ?doc_time:Txq_temporal.Timestamp.t ->
  ?current:Txq_vxml.Vnode.t ->
  current_blob:Txq_store.Blob_store.blob ->
  snapshot_blob:Txq_store.Blob_store.blob option ->
  unit ->
  t
(** Version 0 of a document, over its written blobs.  [current] is the
    decoded version-0 tree; the generator advances past its XIDs.  Without
    it the document has no current tree until {!load_current} — crash
    recovery reads no blob before the last journal record is applied, and
    reconstructs nothing before then (the current tree anchors
    reconstruction). *)

val append :
  t ->
  ts:Txq_temporal.Timestamp.t ->
  ?doc_time:Txq_temporal.Timestamp.t ->
  delta_blob:Txq_store.Blob_store.blob ->
  snapshot_blob:Txq_store.Blob_store.blob option ->
  ?current:Txq_vxml.Vnode.t ->
  current_blob:Txq_store.Blob_store.blob ->
  free:(Txq_store.Blob_store.blob -> unit) ->
  unit ->
  unit
(** Appends one version whose blobs are written, hands the superseded
    current blob to [free] and installs the new one ([current] as in
    {!restore}).  The caller advances the XID generator past the delta's
    ids ({!mark_used}).  Raises [Invalid_argument] on a deleted document,
    a non-advancing timestamp, or a read-only view. *)

val load_current : t -> Txq_vxml.Vnode.t
(** Decodes the current version from its blob, installs it as the current
    tree and advances the generator past its XIDs.  Raises [Failure] if the
    blob does not decode. *)

val delta_pages : t -> int
(** Pages holding delta blobs (storage accounting). *)

val total_pages : t -> int
(** Pages holding the current version, deltas and snapshots. *)
