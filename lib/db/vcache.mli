(** Byte-budgeted LRU cache of materialized document versions and decoded
    completed deltas.

    Both kinds are keyed by [(doc_id, version)] — a delta by the version it
    leads to — and share one byte budget and one recency order.  A cached
    entry is immutable forever: version numbers are never reassigned
    (commits only append, document ids are never reused), so a hit can be
    served without any validation — eviction exists purely to bound memory,
    and explicit eviction on document deletion or recovery is defensive
    housekeeping, not a correctness requirement.  A vacuum is the one
    exception: it frees the stored blobs below its new base, so
    {!evict_before} must drop their residents.

    Recency is an intrusive doubly-linked list: a hit moves its entry to
    the front and eviction pops the least recently used entry from the
    back, both in constant time whatever the number of residents.

    Residents double as {e anchors} for incremental reconstruction
    (Section 7.3.3): when version [v] is wanted and some [v'] is cached,
    applying the [|v - v'|] deltas between them is often far cheaper than
    walking from the stored current version or the nearest snapshot.

    Hit/miss counts ([vcache_*] for versions, [delta_cache_*] for deltas)
    and the byte-residency gauge of both kinds are reported through the
    {!Txq_store.Io_stats} record handed to {!create}.  A budget of [0]
    disables the cache completely: every operation is a no-op and no
    counter moves.

    Every operation is safe under concurrent callers: one cache is shared
    by the live database handle and all of its snapshots, so reader
    domains hit it simultaneously.  Since entries are immutable and keys
    are never reassigned, concurrency only reorders LRU eviction — it can
    never serve a wrong tree or delta. *)

type t

val create : budget:int -> io:Txq_store.Io_stats.t -> t
(** [budget] in (approximate) bytes; [0] disables. *)

val enabled : t -> bool
val bytes : t -> int
(** Current residency. *)

val find : t -> Txq_vxml.Eid.doc_id -> int -> Txq_vxml.Vnode.t option
(** Exact lookup of a materialized version; counts a [vcache_*] hit or
    miss. *)

val find_delta : t -> Txq_vxml.Eid.doc_id -> int -> Txq_vxml.Delta.t option
(** Exact lookup of the decoded delta leading to the given version; counts
    a [delta_cache_*] hit or miss. *)

val best_anchor :
  t -> Txq_vxml.Eid.doc_id -> lo:int -> hi:int ->
  (int * Txq_vxml.Vnode.t) option
(** The cached version minimizing the deltas needed to materialize every
    version in [\[lo, hi\]] (an anchor inside the range attains the
    minimum, [hi - lo]); with [lo = hi], the cached version nearest to the
    target.  An anchor candidate, not an answer, so no hit/miss is
    counted. *)

val put : t -> Txq_vxml.Eid.doc_id -> int -> Txq_vxml.Vnode.t -> unit
(** Inserts, evicting least-recently-used entries of either kind until
    within budget; trees larger than the whole budget are not cached. *)

val put_delta : t -> Txq_vxml.Eid.doc_id -> int -> Txq_vxml.Delta.t -> unit
(** As {!put}, for the decoded delta leading to the given version. *)

val evict_before : t -> Txq_vxml.Eid.doc_id -> int -> unit
(** [evict_before t doc b] drops the cached versions below [b] and the
    cached deltas leading to versions at or below [b] — what a vacuum that
    rebases the document onto [b] frees, including the delta into [b].
    Required because {!find} is consulted before the docstore can
    bounds-check the version number. *)

val evict_doc : t -> Txq_vxml.Eid.doc_id -> unit
val clear : t -> unit

val residents : t -> ([ `Tree | `Delta ] * Txq_vxml.Eid.doc_id * int) list
(** Every resident, most recently used first (tests and diagnostics). *)
