(** Database configuration: the experimental knobs of Section 7.

    Every option corresponds to a design alternative the paper discusses;
    the benchmark harness sweeps them.  Section 3.1's document time has no
    knob: it is part of the content, and queries reach it through content
    like any other value (e.g. [D/meta/published]). *)

type fti_mode =
  | Fti_versions  (** alternative A1 (Section 7.2) — the paper's choice *)
  | Fti_deltas  (** alternative A2 — index the delta operations *)
  | Fti_both  (** alternative A3 — maintain both *)
  | Fti_none  (** no content index; only navigation operators work *)

type retention = {
  keep_newer_than : Txq_temporal.Timestamp.t option;
      (** Vacuum horizon: history valid strictly before this transaction
          time may be squashed away; documents deleted at or before it may
          be dropped entirely.  [None] — no time-based truncation. *)
  keep_versions : int option;
      (** Keep at most the newest N versions of each document ([>= 1]).
          [None] — no count-based truncation. *)
}
(** Default retention policy used by [Db.vacuum] when none is passed
    explicitly.  Both knobs [None] (the default) makes vacuum a no-op:
    the paper's pure transaction-time model where "nothing is ever
    physically removed". *)

type t = {
  snapshot_every : int option;
      (** Store a full snapshot every k versions (Section 7.3.3); [None]
          keeps only the current version plus deltas. *)
  fti_mode : fti_mode;
  cretime_index : bool;
      (** Maintain the auxiliary EID → (create, delete) timestamp index of
          Section 7.3.6, a page-backed B+-tree whose maintenance and
          lookups are IO-accounted; without it CreTime/DelTime traverse
          deltas. *)
  placement : Txq_store.Blob_store.policy;
      (** Delta/version blob placement (Section 7.2's clustering remark). *)
  buffer_pool_pages : int;
  version_cache_bytes : int;
      (** Byte budget of the LRU version cache, shared by materialized
          [(doc, version)] trees and decoded completed deltas under one
          recency order; tree residents also serve as anchors for
          incremental reconstruction, delta residents spare history reads
          the blob fetch and decode.  0 disables the cache entirely,
          reproducing uncached IO behavior exactly. *)
  durability : [ `None | `Journal ];
      (** [`Journal] appends one commit-journal record per mutating
          operation, after the operation's blobs are durably written and
          before any in-memory structure changes, making every commit
          atomic and {!Db.recover}able.  [`None] (the default, and the
          paper's setting) keeps the delta index purely in memory: a crash
          loses the version history. *)
  tracing : bool;
      (** Install the no-op trace sink at [Db.create]/[Db.recover] time so
          operators build span trees (visible to [Trace.collect], metrics
          histograms, and any sink installed later).  Off by default: with
          no sink installed every [Trace.with_span] in the operators is a
          single pointer compare. *)
  fti_segment_postings : int;
      (** Tail watermark of the two-tier FTI: when this many postings have
          accumulated in the mutable tail (across all words) at a commit
          boundary, they are frozen into immutable sorted segments.
          [max_int] (or any non-positive value) disables freezing and keeps
          the original single-tier index. *)
  domains : int;
      (** Worker domains for the document-parallel pattern-scan operators.
          1 (the default) runs everything inline on the calling domain —
          exactly the sequential behaviour; results are deterministic and
          identical for every value.  A scan fans out only over enough
          candidate documents to amortize the spawns
          ([Txq_core.Scan.min_docs] per extra domain). *)
  retention : retention;
  group_commit : bool;
      (** Batch journal durability across concurrent committers: [commit]
          buffers its journal record and returns once a group-commit
          leader has flushed the batch with a single durability point
          (one [fsync] for many transactions).  Off (the default), every
          mutating operation syncs its own record before returning —
          byte-identical on-disk behaviour to the pre-group engine.
          With group commit on, a transaction is visible in memory
          slightly before it is durable; recovery still lands on a
          strict prefix of the commit order. *)
  group_commit_window_us : int;
      (** Leader collection window in microseconds: how long a group-
          commit leader waits for other committers to join its batch
          before flushing.  0 flushes immediately (batching then happens
          only when committers pile up faster than the flush). *)
  planner : bool;
      (** Cost-based planning in [Exec]: statements are rewritten before
          costing, multiway-join legs are ordered by estimated
          selectivity from live index statistics, CreTime/DelTime pick
          Traverse vs index per predicate by estimated chain depth, and
          scan domain fan-out follows estimated rows.  On (the default)
          and off produce byte-identical results — off preserves literal
          as-written evaluation as the differential oracle. *)
}

val default : t
(** A1 index, CreTime index on, no snapshots, unclustered placement, 256
    buffer pages, 8 MiB version cache — the paper's baseline system plus
    the cache every serious implementation assumes. *)

val with_snapshots : int -> t -> t
val durable : t -> t
(** Turns on [`Journal] durability. *)

val with_tracing : t -> t
(** Turns on [tracing]. *)

val with_group_commit : ?window_us:int -> t -> t
(** Turns on [group_commit]; [window_us] overrides the collection window
    (clamped up to 0). *)

val with_planner : bool -> t -> t
(** Sets [planner].  [with_planner false] is the literal-evaluation
    oracle the planner differential tests compare against. *)

val no_retention : retention

val with_retention :
  ?keep_newer_than:Txq_temporal.Timestamp.t -> ?keep_versions:int -> t -> t
(** Sets the default retention policy ([keep_versions] clamped up to 1). *)

val maintains_version_index : t -> bool
val maintains_delta_index : t -> bool
