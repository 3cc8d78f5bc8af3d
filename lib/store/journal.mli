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
    is never rewritten once it holds part of a committed record (except by
    {!truncate}, which drops records on purpose), so a torn write can only
    damage the record being appended, never an earlier one.
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
    leader's flush).  Returns the record's {e ticket}, its record index
    plus one; the record is durable once the journal's synced ticket
    reaches it.  Thread-safe. *)

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
(** Tickets known durable (recovered records count as synced): records
    [0 .. synced_count - 1] are on disk. *)

val record_count : t -> int
(** Committed records this journal knows of (appended plus recovered),
    including buffered ones not yet durable. *)

val page_count : t -> int
(** Pages owned by the journal (its storage overhead). *)

val read : t -> int -> string
(** [read t i] is the payload of record [i] (counting committed records
    from 0, recovered ones first), read back from its pages: each page's
    digest and position are checked as {!recover} checks them.  Raises
    [Invalid_argument] when record [i] is not durable yet, and [Failure]
    when a page fails its check. *)

val truncate : t -> int -> int list
(** [truncate t k] drops every record from index [k] on: it overwrites
    their pages with non-journal pages, counts one durability point, and
    returns the page ids it released (they belong to the blob allocator
    from now on).  Their sequence numbers stay burned.  A crash part-way
    leaves each dropped record whole or incomplete, so the next
    {!recover} still ends at a prefix that keeps the first [k].  Raises
    [Invalid_argument] when [k] is out of range or records are
    buffered. *)

type recovery = {
  journal : t;  (** positioned to append after the last record *)
  records : string list;  (** committed payloads, in append order *)
  journal_pages : int list;
      (** every disk page bearing a valid journal header, including pages of
          incomplete records; the blob allocator must not hand these out *)
}

val recover : Buffer_pool.t -> recovery
(** Scans every page of the underlying disk once, however many records it
    holds.  Every complete record is committed, in sequence order; an
    incomplete one is a burned sequence number or the torn tail.  Also the
    read path for a clean (uncrashed) restart: on a disk without journal
    pages it returns an empty journal. *)
