(** Mixed read/write operation streams for multi-client server workloads.

    Each generator is a deterministic function of its seed and client id:
    two runs produce byte-identical operation streams, which is what lets
    the soak test differentially replay a concurrent run against a serial
    oracle.  A client only ever writes URLs in its own namespace
    ({!url_for}), so per-URL state never races between clients; reads
    range over the shared seeded corpus and the client's own documents.

    Generated query statements never mention [NOW]: their results are a
    function of store contents alone, so a replay at different wall-clock
    instants still compares exactly. *)

type op =
  | Query of string  (** a statement: SELECT query or algebra expression *)
  | Insert of string * Txq_xml.Xml.t  (** url, document *)
  | Update of string * Txq_xml.Xml.t
  | Delete of string

val op_to_string : op -> string
(** One-line rendering for logs and failure messages. *)

val is_write : op -> bool

type mix = {
  w_query : int;  (** SELECT statements (current, snapshot and EVERY) *)
  w_algebra : int;  (** algebra statements *)
  w_insert : int;
  w_update : int;
  w_delete : int;
}
(** Relative weights; zero disables an operation class. *)

val read_only_mix : mix

type gen

val create :
  ?mix:mix -> ?spec:Load.spec -> client:int -> seed:int -> unit -> gen
(** A per-client stream.  [spec] describes the seeded corpus the reads
    target (defaults to {!Load.default_spec}); [client] namespaces the
    write URLs. *)

val next_op : gen -> op
(** The next operation.  Write operations are self-consistent: an update
    or delete always names a URL the stream has inserted and not yet
    deleted (when the client owns no live document, an insert is produced
    instead). *)

val ops : gen -> int -> op list
(** The next [n] operations. *)

val arrivals : seed:int -> rate_per_s:float -> duration_s:float -> float list
(** Open-loop (Poisson) arrival schedule: sorted offsets in seconds from
    the start, exponential inter-arrival times with the given mean rate,
    covering [\[0, duration_s)]. *)
