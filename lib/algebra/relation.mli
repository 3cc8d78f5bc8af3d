(** Temporal relations: tuples of typed fields, each row carrying a
    coalesced validity set over the {!Timeline}'s instant indices.

    A relation is kept {e normalized}: distinct tuples, non-empty coalesced
    validity, rows sorted by tuple.  Under Date's per-instant model a
    normalized relation is a canonical form — two relations are equal as
    idealized per-instant tables iff they are structurally equal here,
    which is what the differential tests compare (via {!render}, in
    timestamp space so stores with different instant sets can be
    compared after clipping). *)

type field =
  | F_node of Txq_vxml.Eid.doc_id * Txq_vxml.Xidpath.t
      (** a matched element, identified by document and XID path *)
  | F_doc of Txq_vxml.Eid.doc_id  (** a grouping key *)
  | F_int of int  (** an aggregate value *)
  | F_null  (** the padding of an outer join's unmatched side *)

type tuple = field list

type row = { tuple : tuple; valid : Txq_core.Vrange.t }

type t = row list
(** Normalized; build with {!normalize}. *)

val tuple_key : tuple -> string
(** Canonical rendering of a tuple; equal tuples have equal keys. *)

val normalize : row list -> t
(** Merges rows with equal tuples (validity union), drops empty rows,
    sorts by tuple key. *)

val cardinality : t -> int

val render :
  ?clip_from:Txq_temporal.Timestamp.t -> Timeline.t -> t -> string list
(** One line per row: tuple key plus timestamp intervals (sorted; rows
    whose validity clips to nothing are dropped).  [clip_from] intersects
    every interval with [\[clip_from, +inf)] — the retained-window
    comparison after a vacuum. *)

val row_to_xml : Timeline.t -> row -> Txq_xml.Xml.t
(** One [<row>fields…<valid>…</valid></row>] element — the unit a
    streaming server emits per chunk. *)

val to_xml : Timeline.t -> t -> Txq_xml.Xml.t
(** [<results><row>fields…<valid><interval from=… to=…/>…</valid></row>…];
    the concatenation of {!row_to_xml} over the rows. *)
