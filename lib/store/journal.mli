(** Page-level commit journal (write-ahead log) over the simulated disk.

    The database's in-memory structures — the delta index, the blob
    directory, every auxiliary index — die with a crash; the journal is the
    single on-disk structure from which they are rebuilt.  Each committed
    operation is appended as one {e atomic record}: an opaque byte string,
    framed over one or more freshly allocated pages.

    Atomicity under torn pages comes from the page format, not from write
    ordering.  Every journal page is self-validating: it carries a magic
    tag, the record's sequence number, its position within the record
    ([page_index]/[page_count]) and an MD5 digest of the page body.  A page
    is never rewritten once it holds part of a committed record, so a torn
    write can only damage the record being appended, never an earlier one.
    A record exists after recovery iff {e all} of its pages are present and
    digest-valid; otherwise the append never happened.

    Recovery ({!recover}) scans the whole disk for journal pages — there is
    no superblock to corrupt — groups them by sequence number, drops
    incomplete records, and returns the committed payloads in append order
    together with a journal positioned to continue appending (sequence
    numbers of incomplete records are burned, so their surviving pages can
    never be confused with later appends). *)

type t

val create : Buffer_pool.t -> t
(** A fresh journal.  Pages are allocated from the pool on demand; nothing
    is written until the first {!append}. *)

val append : t -> string -> unit
(** Appends one record.  The record is durable — visible to {!recover} —
    exactly when the call returns; if the disk crashes mid-append the
    record is discarded on recovery.  Raises [Invalid_argument] on the
    empty string (an empty record is indistinguishable from none).
    Equivalent to {!append_buffered} followed by {!sync}; one durability
    point ({!Io_stats.t.fsyncs}) per call. *)

val append_buffered : t -> string -> int
(** Appends one record without making it durable: pages are allocated and
    encoded but land on disk only at the next {!sync} (or a group-commit
    leader's flush).  Returns the record's {e ticket}; the record is
    durable once the journal's synced ticket reaches it.  Thread-safe. *)

val sync : t -> unit
(** Flushes every buffered record to disk, strictly in append order, as
    one durability point.  A torn write mid-flush leaves a {e prefix} of
    the buffered records committed — a later record is never recoverable
    without every earlier one.  No-op when nothing is buffered. *)

val group_sync : t -> sleep:(unit -> unit) -> int -> unit
(** [group_sync t ~sleep ticket] blocks until [ticket] is durable.  The
    first caller becomes the batch leader: it runs [sleep ()] (the
    collection window — other committers buffer records meanwhile) and
    then flushes the whole batch as a single durability point; concurrent
    callers ride the leader's flush and are released together.  Raises
    {!Disk.Crash} if a flush crashed before the ticket could sync. *)

val synced_count : t -> int
(** Tickets known durable (recovered records count as synced). *)

val record_count : t -> int
(** Committed records this journal knows of (appended plus recovered),
    including buffered ones not yet durable. *)

val page_count : t -> int
(** Pages owned by the journal (its storage overhead). *)

(** {1 Tailing}

    A {!tailer} is a resumable cursor over the committed records of a disk's
    journal: it scans for journal pages, yields records in sequence order,
    and remembers where it stopped so the next call continues from there —
    the read side of journal shipping.  Crucially it distinguishes "nothing
    further is committed {e yet}" from "this sequence number can never
    complete":

    - {!Tail_wait}: the next sequence number has no complete record and
      nothing complete exists beyond it.  Either the tail is still being
      written (keep polling) or a crash tore it (recovery drops it).
    - [Tail_gap seq]: [seq] is incomplete but a {e later} sequence number is
      complete on disk.  Since flushes land strictly in append order, [seq]
      was burned by an append that never finished; it can never complete and
      the cursor steps over it.

    The distinction is physical (page-level).  Whether a record that {e is}
    complete carries a decodable payload is the layer above's concern. *)

type tail =
  | Tail_record of string  (** the next committed record, in order *)
  | Tail_wait  (** nothing further committed; poll again for more bytes *)
  | Tail_gap of int  (** this sequence number was burned; stepped over it *)

type tailer

val tailer : Buffer_pool.t -> tailer
(** A cursor positioned before the first record.  Safe on a disk without
    journal pages (every call returns {!Tail_wait} until pages appear). *)

val tail_next : tailer -> tail
(** Advances past the returned record or gap; {!Tail_wait} does not move
    the cursor.  Each call rescans pages not yet known to be journal pages
    (a cheap magic-tag check filters non-journal pages), so new appends are
    picked up. *)

val tailer_position : tailer -> int
(** The sequence number the next {!tail_next} will consider. *)

type recovery = {
  journal : t;  (** positioned to append after the last record *)
  records : string list;  (** committed payloads, in append order *)
  journal_pages : int list;
      (** every disk page bearing a valid journal header, including pages of
          incomplete records; the blob allocator must not hand these out *)
}

val recover : Buffer_pool.t -> recovery
(** Scans every page of the underlying disk.  Also the read path for a
    clean (uncrashed) restart: on a disk without journal pages it returns
    an empty journal.  The disk is scanned once, however many records it
    holds. *)
