(** The stratum baseline (Section 1).

    "The easiest way to realize this is to store all versions of all
    documents in the database, and use a middleware layer to convert
    temporal query language statements into conventional statements,
    executed by an underlying database system (also called a stratum
    approach)."

    This module is that architecture: every version is stored as a complete
    serialized document in a conventional (non-temporal) store; temporal
    queries are answered by scanning, parsing and path-matching the relevant
    full versions.  There are no persistent element identities, no deltas,
    no temporal index — which is why CREATE TIME, DELETE TIME, PREVIOUS,
    NEXT, CURRENT, DIFF and [==] are {e unsupported} here (Section 3.2's
    identity argument), and why experiments E1/E3/E7 compare against it. *)

type t

val create : ?clock:Txq_temporal.Clock.t -> unit -> t

val insert_document :
  t -> url:string -> ?ts:Txq_temporal.Timestamp.t -> Txq_xml.Xml.t -> unit

val update_document :
  t -> url:string -> ?ts:Txq_temporal.Timestamp.t -> Txq_xml.Xml.t -> unit

val delete_document :
  t -> url:string -> ?ts:Txq_temporal.Timestamp.t -> unit -> unit

val stored_pages : t -> int
(** Total size of all stored full versions, in 4 KiB pages (storage
    comparison, E7). *)

val versions_parsed : t -> int
(** Full documents parsed since the last reset — the stratum's unit of
    work. *)

val reset_counters : t -> unit

val run : t -> Ast.query -> (Txq_xml.Xml.t, Exec.error) result
(** Same language, same [<results>] output shape as {!Exec.run}, evaluated
    by full-version scans. *)

val run_string : t -> string -> (Txq_xml.Xml.t, Exec.error) result
