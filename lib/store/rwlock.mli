(** Writer-preferring, read-re-entrant reader-writer lock over domains
    and their threads.

    A holder is one systhread of one domain ([Domain.self] and
    [Thread.id] together), so threads sharing a domain are told apart.
    Any number of holders may hold the read side; the write side is
    exclusive.  A thread may re-acquire the read lock it already holds,
    and a thread holding the write lock may take read locks freely (they
    nest inside the write lock) — so composed operators never
    self-deadlock.  A read → write upgrade by one thread raises
    [Invalid_argument] instead of deadlocking; a thread asking for the
    write lock while another thread of its domain reads waits like any
    other writer.  Once a writer is waiting, fresh readers queue behind
    it, so a stream of readers cannot starve the writer. *)

type t

val create : unit -> t

val with_read : t -> (unit -> 'a) -> 'a
val with_write : t -> (unit -> 'a) -> 'a

val try_with_write : t -> (unit -> 'a) -> 'a option
(** Run [f] under the write lock only if it can be taken without
    blocking; [None] when a writer, reader, or queued writer holds it
    off (or this thread holds a read lock).  Re-entrant like
    [with_write]. *)
