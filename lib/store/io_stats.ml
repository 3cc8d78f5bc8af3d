type t = {
  mutable page_reads : int;
  mutable page_writes : int;
  mutable seeks : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable vcache_hits : int;
  mutable vcache_misses : int;
  mutable vcache_bytes : int;
  mutable delta_cache_hits : int;
  mutable delta_cache_misses : int;
  mutable deltas_applied : int;
  mutable fsyncs : int;
}

let create () =
  { page_reads = 0; page_writes = 0; seeks = 0; cache_hits = 0;
    cache_misses = 0; vcache_hits = 0; vcache_misses = 0; vcache_bytes = 0;
    delta_cache_hits = 0; delta_cache_misses = 0; deltas_applied = 0; fsyncs = 0 }

let reset t =
  t.page_reads <- 0;
  t.page_writes <- 0;
  t.seeks <- 0;
  t.cache_hits <- 0;
  t.cache_misses <- 0;
  t.vcache_hits <- 0;
  t.vcache_misses <- 0;
  t.delta_cache_hits <- 0;
  t.delta_cache_misses <- 0;
  t.deltas_applied <- 0;
  t.fsyncs <- 0
(* vcache_bytes is a gauge maintained by the version cache, not a counter:
   reset leaves it alone. *)

let copy t =
  {
    page_reads = t.page_reads;
    page_writes = t.page_writes;
    seeks = t.seeks;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    vcache_hits = t.vcache_hits;
    vcache_misses = t.vcache_misses;
    vcache_bytes = t.vcache_bytes;
    delta_cache_hits = t.delta_cache_hits;
    delta_cache_misses = t.delta_cache_misses;
    deltas_applied = t.deltas_applied;
    fsyncs = t.fsyncs;
  }

let diff ~after ~before =
  {
    page_reads = after.page_reads - before.page_reads;
    page_writes = after.page_writes - before.page_writes;
    seeks = after.seeks - before.seeks;
    cache_hits = after.cache_hits - before.cache_hits;
    cache_misses = after.cache_misses - before.cache_misses;
    vcache_hits = after.vcache_hits - before.vcache_hits;
    vcache_misses = after.vcache_misses - before.vcache_misses;
    vcache_bytes = after.vcache_bytes;
    delta_cache_hits = after.delta_cache_hits - before.delta_cache_hits;
    delta_cache_misses = after.delta_cache_misses - before.delta_cache_misses;
    deltas_applied = after.deltas_applied - before.deltas_applied;
    fsyncs = after.fsyncs - before.fsyncs;
  }

let add acc x =
  acc.page_reads <- acc.page_reads + x.page_reads;
  acc.page_writes <- acc.page_writes + x.page_writes;
  acc.seeks <- acc.seeks + x.seeks;
  acc.cache_hits <- acc.cache_hits + x.cache_hits;
  acc.cache_misses <- acc.cache_misses + x.cache_misses;
  acc.vcache_hits <- acc.vcache_hits + x.vcache_hits;
  acc.vcache_misses <- acc.vcache_misses + x.vcache_misses;
  acc.vcache_bytes <- Stdlib.max acc.vcache_bytes x.vcache_bytes;
  acc.delta_cache_hits <- acc.delta_cache_hits + x.delta_cache_hits;
  acc.delta_cache_misses <- acc.delta_cache_misses + x.delta_cache_misses;
  acc.deltas_applied <- acc.deltas_applied + x.deltas_applied;
  acc.fsyncs <- acc.fsyncs + x.fsyncs

let fields t =
  [
    ("page_reads", t.page_reads);
    ("page_writes", t.page_writes);
    ("seeks", t.seeks);
    ("cache_hits", t.cache_hits);
    ("cache_misses", t.cache_misses);
    ("vcache_hits", t.vcache_hits);
    ("vcache_misses", t.vcache_misses);
    ("vcache_bytes", t.vcache_bytes);
    ("delta_cache_hits", t.delta_cache_hits);
    ("delta_cache_misses", t.delta_cache_misses);
    ("deltas_applied", t.deltas_applied);
    ("fsyncs", t.fsyncs);
  ]

(* Mirror the counters into the process metrics registry as gauges
   ("io.page_reads", …): one registry dump then shows IO next to the
   per-operator histograms. Gauges, not counter increments, because this
   record *is* the source of truth — publish is idempotent. *)
let publish ?(prefix = "io.") t =
  List.iter (fun (k, v) -> Txq_obs.Metrics.set_gauge (prefix ^ k) v) (fields t)

let to_string t =
  Printf.sprintf
    "reads=%d writes=%d seeks=%d cache_hits=%d cache_misses=%d \
     vcache_hits=%d vcache_misses=%d vcache_bytes=%d delta_cache_hits=%d \
     delta_cache_misses=%d deltas_applied=%d fsyncs=%d"
    t.page_reads t.page_writes t.seeks t.cache_hits t.cache_misses
    t.vcache_hits t.vcache_misses t.vcache_bytes t.delta_cache_hits
    t.delta_cache_misses t.deltas_applied t.fsyncs

let pp ppf t = Format.pp_print_string ppf (to_string t)
