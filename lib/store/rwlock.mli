(** Writer-preferring, read-re-entrant reader-writer lock over domains.

    Any number of domains may hold the read side; the write side is
    exclusive.  A domain may re-acquire the read lock it already holds,
    and a domain holding the write lock may take read locks freely (they
    nest inside the write lock) — so composed operators never
    self-deadlock.  A read → write upgrade raises [Invalid_argument]
    instead of deadlocking.  Once a writer is waiting, fresh readers
    queue behind it, so a stream of readers cannot starve the writer. *)

type t

val create : unit -> t

val with_read : t -> (unit -> 'a) -> 'a
val with_write : t -> (unit -> 'a) -> 'a

val try_with_write : t -> (unit -> 'a) -> 'a option
(** Run [f] under the write lock only if it can be taken without
    blocking; [None] when a writer, reader, or queued writer holds it
    off (or this domain holds a read lock).  Re-entrant like
    [with_write]. *)
