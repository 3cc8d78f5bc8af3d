(** The in-memory CreTime index this repository shipped next to the paged
    one, as a model of [Txq_db.Cretime_index]: a hash table from EIDs to
    (created, deleted) with the same maintenance and pruning semantics,
    where a pruned row is removed rather than tombstoned. *)

type t

val create : unit -> t

val record_created : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t -> unit
(** Raises [Invalid_argument] if the EID was already created. *)

val record_deleted : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t -> unit

val create_time : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t option
val delete_time : t -> Txq_vxml.Eid.t -> Txq_temporal.Timestamp.t option

val prune :
  t ->
  affected:
    (Txq_vxml.Eid.doc_id * [ `Drop | `Before of Txq_temporal.Timestamp.t ])
    list ->
  int
