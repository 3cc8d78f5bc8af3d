(** The database's global instant domain.

    Version numbers are per-document, so validity sets of rows from
    different documents are not directly comparable.  The algebra therefore
    works on a shared axis: the sorted array of every event instant the
    database has seen — each retained version's commit timestamp plus each
    document's deletion instant.  Between two consecutive instants nothing
    changes, so Date's idealized per-instant relation is constant there;
    instant {e indices} are a faithful finite encoding of it, and validity
    sets over them reuse {!Txq_core.Vrange} unchanged (index range
    [\[a, b)], with [b = max_int] for "until changed").

    Converting a timestamp interval in and back out is lossless as long as
    its endpoints are event instants, which every operator input and output
    guarantees. *)

type t

val of_db : Txq_db.Db.t -> t
(** Collects the event instants of every document: commit timestamps of
    the versions at or above the vacuum base, plus the deletion instant of
    dead documents. *)

val length : t -> int
val instant : t -> int -> Txq_temporal.Timestamp.t

val of_intervals : t -> Txq_temporal.Interval.t list -> Txq_core.Vrange.t
(** Timestamp intervals to an instant-index range set ([+inf] maps to an
    open range). *)

val to_intervals : t -> Txq_core.Vrange.t -> Txq_temporal.Interval.t list
(** Instant-index ranges back to timestamp intervals (an open range, or one
    reaching past the last instant, maps to [+inf)). *)
