(** IO accounting.

    The paper argues about operator cost in terms of delta reads and disk
    seeks ("each delta read will involve a disk seek in the worst case",
    Section 7.2).  Every layer of the storage simulator feeds these counters
    so the benchmarks can report exactly those quantities.  The version
    cache of [txq_db] reports through the same record ([vcache_*],
    [delta_cache_*], [deltas_applied]) so one snapshot captures both page
    traffic and reconstruction work. *)

type t = {
  mutable page_reads : int;  (** pages fetched from the simulated disk *)
  mutable page_writes : int;
  mutable seeks : int;
      (** non-adjacent page accesses, the simulator's proxy for arm moves *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable vcache_hits : int;  (** version-cache lookups served in memory *)
  mutable vcache_misses : int;
  mutable vcache_bytes : int;
      (** current version-cache residency — a gauge, not a counter; [reset]
          leaves it alone and [diff] reports the [after] value *)
  mutable delta_cache_hits : int;
      (** decoded completed deltas served from the version cache; the
          [vcache_*] counters count materialized-version lookups only *)
  mutable delta_cache_misses : int;
      (** delta lookups that read and decoded the stored blob *)
  mutable deltas_applied : int;
      (** completed-delta applications performed by reconstruction *)
  mutable fsyncs : int;
      (** journal durability points: one per flushed batch of journal
          pages, however many commits the batch carried (group commit
          amortizes this across transactions) *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t
val diff : after:t -> before:t -> t
(** Counter deltas between two snapshots. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val fields : t -> (string * int) list
(** Field name/value pairs, in declaration order. *)

val publish : ?prefix:string -> t -> unit
(** Mirror every field into the {!Txq_obs.Metrics} registry as gauges
    named [prefix ^ field] (default prefix ["io."]).  Idempotent. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
