(** Typed commit-journal records and their byte-level codec.

    One record per mutating database operation, appended to
    {!Txq_store.Journal} after the operation's blobs are on disk.  A record
    carries everything recovery needs that is not derivable from the blobs
    themselves: document identity, timestamps, and the {e page directories}
    of the blobs the operation wrote (the blob directory is otherwise
    in-memory only, like the paper's delta index of Section 7.1). *)

type blob_ref = { br_pages : int list; br_length : int }

type t =
  | Insert of {
      r_doc : int;
      r_url : string;
      r_ts : int;  (** timestamp, seconds *)
      r_current : blob_ref;  (** version-0 tree *)
      r_snapshot : blob_ref option;
    }
  | Commit of {
      r_doc : int;
      r_version : int;  (** the version this commit creates *)
      r_ts : int;
      r_delta : blob_ref;  (** completed delta v-1 → v *)
      r_current : blob_ref;  (** new current version *)
      r_snapshot : blob_ref option;
    }
  | Delete of { r_doc : int; r_ts : int }
  | Vacuum of { r_ts : int; r_docs : vacuum_doc list }
      (** One record for a whole vacuum pass, appended {e after} every new
          base snapshot blob is durable and {e before} any in-memory
          structure changes — recovery therefore lands exactly on the
          pre-vacuum state (record missing) or the post-vacuum state
          (record present), never in between. *)

and vacuum_doc = {
  vd_doc : int;
  vd_base : int;  (** new first retained version *)
  vd_drop : bool;  (** whole document dropped (deleted before the horizon) *)
  vd_snapshot : blob_ref option;  (** freshly written base snapshot *)
  vd_xid_watermark : int;
      (** XID generator high-water mark, covering ids that only ever
          appeared in vacuumed deltas *)
}

val encode : t -> string

val decode : string -> (t, string) result
(** Total: never raises on malformed input.  [encode]/[decode] round-trip
    (property-tested). *)

val decode_exn : string -> t
(** Raises [Failure]; used on payloads the journal already digest-checked,
    where malformation means a bug, not corruption. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Shipping}

    A {e shipment} is one committed journal record as sent to a replica:
    the record payload plus the {e logical contents} of the blobs it
    references, since the primary's page numbers mean nothing on the
    replica's disk.  The replica re-writes the blobs locally and appends
    its own (re-pointed) record, so a replica store is a self-contained
    database that plain [Db.recover] can reopen. *)

type shipment = {
  sh_index : int;  (** position in the primary's applied-record order *)
  sh_payload : string;  (** the encoded {!t} as the primary journaled it *)
  sh_contents : string list;
      (** one entry per {!content_slots} slot of the decoded payload:
          [Insert] ships the [Codec]-encoded version-0 tree, [Commit]
          ships the [Delta]-encoded delta (the replica derives the new
          current tree by applying it) *)
}

val content_slots : t -> int
(** How many content strings a shipment of this record must carry. *)

val encode_shipment : shipment -> string
val decode_shipment : string -> (shipment, string) result
