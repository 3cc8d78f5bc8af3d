(** CreTime and DelTime (Sections 6.1, 7.3.6).

    Both operators come in the two strategies the paper weighs:

    - [`Traverse]: walk the delta chain — backward from the element's
      version for CreTime until the delta that introduced it, forward for
      DelTime until the delta that removed it.  No reconstruction is needed,
      but every delta on the way is read (the availability of the timestamp
      in the TEID is what makes the bounded walk possible, as the paper
      notes).
    - [`Index]: look the EID up in the auxiliary create/delete-time index.

    Experiment E6 measures the trade.  Both strategies answer at the
    handle's own view on every handle: the index is shared with the live
    writer, and a snapshot counts only the rows no later than its view of
    the element's document (its deletion, or its newest version), so a
    later deletion reads as "still alive" there. *)

type strategy = [ `Traverse | `Index ]

type bound =
  | Exact of Txq_temporal.Timestamp.t
  | At_or_before of Txq_temporal.Timestamp.t
      (** The event happened at or before this instant; its exact timestamp
          fell in a vacuumed epoch.  The carried instant is the timestamp
          of the document's first retained version. *)

val bound_ts : bound -> Txq_temporal.Timestamp.t

val cre_time_bound :
  Txq_db.Db.t -> ?strategy:strategy -> Txq_vxml.Eid.Temporal.t ->
  bound option
(** Create time of the element as a (possibly inexact) bound: after a
    vacuum truncated the document's history, an element introduced in the
    vacuumed prefix can only be dated [At_or_before] the first retained
    version — both strategies agree on this (index rows that predate the
    retained window are clamped, since a post-crash index rebuild could
    not know them more precisely).  [None] if the element never existed
    (or, for [`Traverse], did not exist at the TEID's timestamp). *)

val cre_time :
  Txq_db.Db.t -> ?strategy:strategy -> Txq_vxml.Eid.Temporal.t ->
  Txq_temporal.Timestamp.t option
(** [cre_time_bound] collapsed to its timestamp (exact, or the truncated
    epoch's upper bound).  Default strategy: [`Index] when the database
    maintains the index, else [`Traverse]. *)

val del_time :
  Txq_db.Db.t -> ?strategy:strategy -> Txq_vxml.Eid.Temporal.t ->
  Txq_temporal.Timestamp.t option
(** Delete time; [None] while the element is still alive.  If the document
    itself was deleted with the element in its last version, the document's
    deletion time is the element's (Section 7.3.6). *)

val last_traverse_deltas : unit -> int
(** Deltas read by the most recent [`Traverse] call on this {e domain}
    (benchmark instrumentation; domain-local, so concurrent traversals on
    other domains never corrupt it). *)
