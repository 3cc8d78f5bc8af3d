(** Auxiliary create/delete-time index (Section 7.3.6).

    Maps EIDs to their creation timestamp and, once deleted, their deletion
    timestamp.  The paper notes that maintaining it is cheap (bulk inserts on
    document creation are append-only) and that it turns CreTime/DelTime from
    a delta traversal into a lookup; experiment E6 measures that trade.

    The index is a page-backed B+-tree in the simulated store: maintenance
    and lookups cost page IO like everything else.  The key packs (document
    id, XID) into an [int64], so one tree serves the whole database and a
    document's elements are contiguous in key space (the paper's
    append-only observation).

    Rows are transaction-time instants shared by every handle of a
    database: a snapshot reads the same rows as the live writer and keeps
    only those no later than its own view of the document (the clip lives
    in [Txq_core.Lifetime]). *)

type t

val create_paged : Txq_store.Buffer_pool.t -> t

val record_created : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t -> unit
(** Raises [Invalid_argument] if the EID was already created (EIDs are
    never reused). *)

val record_deleted : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t -> unit

val create_time : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t option
val delete_time : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t option
(** [None] while the element is still alive (or unknown). *)

val prune :
  t ->
  affected:
    (Txq_vxml.Eid.doc_id * [ `Drop | `Before of Txq_temporal.Timestamp.t ])
    list ->
  int
(** Retention pruning: [`Drop] removes every row of the document;
    [`Before cutoff] removes rows of elements deleted at or before the
    cutoff and raises earlier creation times of the survivors to the
    cutoff — the rows a rebuild from the truncated chain produces, which
    crash recovery must reproduce (queries already clamp vacuumed creation
    to the first retained instant).  The B+-tree has no physical delete,
    so rows are tombstoned in place and every lookup treats tombstones as
    absent.  Returns rows pruned. *)
