(** The txmldbd wire protocol: length-prefixed binary frames.

    A frame is [u32 BE length ++ u8 opcode ++ body], where [length] counts
    the opcode byte plus the body.  Requests flow client→server, responses
    server→client; a request is answered by zero or more [Chunk] frames
    followed by exactly one terminal frame ([Done], [Error] or [Pong]).
    Chunks carry raw UTF-8 text; for statements, the concatenation of a
    reply's chunks wrapped in [<results>…</results>] equals the
    non-streaming result document byte for byte.

    The server also answers plain HTTP/1.1 [GET] on the same port
    (detected by the first bytes of the connection): [/metrics] and
    [/stats] return [text/plain; Connection: close] renderings of the
    METRICS and STATS frames, for scrapers that don't speak the binary
    protocol.

    See [docs/PROTOCOL.md] for the normative description. *)

type request =
  | Ping
  | Query of string  (** a statement: SELECT query or algebra expression *)
  | Explain of string
  | Analyze of string  (** EXPLAIN ANALYZE: runs the statement *)
  | Insert of string * string  (** url, document bytes *)
  | Update of string * string
  | Delete of string
  | Metrics
  | Stats
  | Ship of { from : int; max : int }
      (** journal shipping pull: records [from ..], at most [max] per
          reply ([max = 0] lets the server pick its default batch).
          Answered by [Shipment] frames then [Done], whose [rows] is the
          number shipped and [watermark] the primary's durable record
          count — the replica's lag is [watermark - (from + rows)]. *)

type response =
  | Done of { rows : int; watermark : int; ts : int }
      (** terminal success: rows emitted; the snapshot watermark the
          request ran at (for writes, the watermark after the commit); the
          request's transaction-time instant in epoch seconds (for writes,
          the commit timestamp). *)
  | Chunk of string
  | Error of int * string  (** {!error_code} value and rendered message *)
  | Pong
  | Shipment of string
      (** one encoded [Journal_record.shipment] (see
          [Journal_record.decode_shipment]) *)

(** Error codes, stable across releases (the message text is not). *)
type error_code =
  | E_parse  (** 1 — statement failed to parse *)
  | E_unknown_variable  (** 2 *)
  | E_unsupported  (** 3 *)
  | E_internal  (** 4 — the evaluator leaked a non-typed failure *)
  | E_bad_frame  (** 5 — unknown opcode or malformed request body *)
  | E_conflict  (** 6 — write refused (duplicate URL, no such URL, …) *)
  | E_shutting_down  (** 7 *)
  | E_too_large  (** 8 — frame exceeds the server's limit *)
  | E_ship_gap
      (** 9 — a vacuum on the primary truncated the history the
          requested records' contents come from; the replica must
          re-clone from current state *)

val error_code_to_int : error_code -> int

val default_max_frame : int
(** 4 MiB: bounds a malicious length prefix. *)

(** {1 Framing} *)

val encode_request : request -> int * string
(** Opcode and body. *)

val decode_request : int -> string -> (request, string) result
(** Inverse of {!encode_request}; [Error] describes the malformation. *)

val encode_response : response -> int * string
val decode_response : int -> string -> (response, string) result

(** {1 Blocking frame I/O}

    All functions retry [EINTR].  They are the only code that touches the
    socket, so the framing layer is fuzzable in isolation. *)

val write_frame : Unix.file_descr -> int -> string -> unit
(** [write_frame fd opcode body]; raises [Unix.Unix_error] on a dead
    peer. *)

val read_frame :
  max_frame:int ->
  Unix.file_descr ->
  [ `Frame of int * string | `Eof | `Too_large of int | `Timeout ]
(** One frame.  [`Eof] on a clean close before the length prefix;
    a peer that dies mid-frame raises [Unix.Unix_error].  [`Too_large]
    reports an announced length over [max_frame] (the connection must
    then be dropped: the stream is no longer in sync).  [`Timeout]
    surfaces [EAGAIN]/[EWOULDBLOCK] from a receive timeout, with no
    bytes consumed, so servers can poll a shutdown flag. *)

val write_request : Unix.file_descr -> request -> unit

val http_preamble : string -> bool
(** Does this look like the start of an HTTP GET rather than a binary
    frame?  (A binary frame never starts with ["GET "]: that would be a
    1.2 GiB length prefix, over any sane [max_frame].) *)
