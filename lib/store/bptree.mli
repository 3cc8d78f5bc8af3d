(** Page-backed B+-tree.

    The paper's auxiliary access structures — the CreTime/DelTime index of
    Section 7.3.6 and the document-time index of Section 3.1 — are ordered
    indexes that live on disk in a real system.  This B+-tree stores
    fixed-size entries (an [int64] key, a pair of [int64]s as value) in
    4 KiB pages of the simulated store, so index lookups and maintenance
    show up in the IO counters like every other access.

    Keys are unique ([insert] is an upsert); there is no delete — in a
    transaction-time database nothing is ever physically removed, deletion
    is an update that closes a validity bound.  Leaves are chained for
    range scans. *)

type t

type value = int64 * int64

val create : Buffer_pool.t -> t
(** An empty tree; allocates its root page. *)

val insert : t -> key:int64 -> value -> unit
(** Inserts or overwrites. *)

val find : t -> int64 -> value option

val range : t -> lo:int64 -> hi:int64 -> (int64 * value) list
(** Entries with [lo <= key < hi], in key order. *)

val iter : t -> (int64 -> value -> unit) -> unit
(** All entries, in key order. *)

val entry_count : t -> int
val height : t -> int
val page_count : t -> int
(** Pages owned by the tree (its storage footprint). *)

