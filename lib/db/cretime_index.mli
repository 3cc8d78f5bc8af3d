(** Auxiliary create/delete-time index (Section 7.3.6).

    Maps EIDs to their creation timestamp and, once deleted, their deletion
    timestamp.  The paper notes that maintaining it is cheap (bulk inserts on
    document creation are append-only) and that it turns CreTime/DelTime from
    a delta traversal into a lookup; experiment E6 measures that trade.

    Two backings:
    - [create ()] — an in-memory hash table (free lookups; useful as the
      upper bound in comparisons);
    - [create_paged pool] — a page-backed B+-tree in the simulated store,
      the realistic deployment: maintenance and lookups cost page IO like
      everything else.  The key packs (document id, XID) into an [int64],
      so one tree serves the whole database and a document's elements are
      contiguous in key space (the paper's append-only observation). *)

type t

val create : unit -> t
val create_paged : Txq_store.Buffer_pool.t -> t
val is_paged : t -> bool

val record_created : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t -> unit
(** Raises [Invalid_argument] if the EID was already created (EIDs are
    never reused). *)

val record_deleted : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t -> unit

val create_time : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t option
val delete_time : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t option
(** [None] while the element is still alive (or unknown). *)

val is_alive : t -> Txq_vxml.Eid.t -> bool

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
    to the first retained instant).  The
    paged backing tombstones rows in place — the B+-tree has no physical
    delete — and every lookup treats tombstones as absent.  Returns rows
    pruned. *)

val entry_count : t -> int

val index_pages : t -> int
(** Pages owned by the paged backing; 0 for the in-memory one. *)
