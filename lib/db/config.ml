type fti_mode =
  | Fti_versions
  | Fti_deltas
  | Fti_both
  | Fti_none

type retention = {
  keep_newer_than : Txq_temporal.Timestamp.t option;
  keep_versions : int option;
}

type t = {
  snapshot_every : int option;
  fti_mode : fti_mode;
  cretime_index : bool;
  placement : Txq_store.Blob_store.policy;
  buffer_pool_pages : int;
  version_cache_bytes : int;
  document_time_path : string option;
  durability : [ `None | `Journal ];
  tracing : bool;
  fti_segment_postings : int;
  domains : int;
  retention : retention;
  group_commit : bool;
  group_commit_window_us : int;
  planner : bool;
  ship_buffer : int;
}

let no_retention = { keep_newer_than = None; keep_versions = None }

let default =
  {
    snapshot_every = None;
    fti_mode = Fti_versions;
    cretime_index = true;
    placement = `Unclustered;
    buffer_pool_pages = 256;
    version_cache_bytes = 8 * 1024 * 1024;
    document_time_path = None;
    durability = `None;
    tracing = false;
    fti_segment_postings = 4096;
    domains = 1;
    retention = no_retention;
    group_commit = false;
    group_commit_window_us = 2000;
    planner = true;
    ship_buffer = 0;
  }

let durable t = { t with durability = `Journal }

let with_retention ?keep_newer_than ?keep_versions t =
  let keep_versions =
    match keep_versions with
    | Some k when k < 1 -> Some 1
    | kv -> kv
  in
  { t with retention = { keep_newer_than; keep_versions } }

let with_tracing t = { t with tracing = true }

let with_snapshots k t = { t with snapshot_every = Some k }

let with_group_commit ?window_us t =
  {
    t with
    group_commit = true;
    group_commit_window_us =
      (match window_us with
       | Some us when us >= 0 -> us
       | Some _ -> 0
       | None -> t.group_commit_window_us);
  }

let with_planner on t = { t with planner = on }

let with_ship_buffer n t = { t with ship_buffer = (if n < 0 then 0 else n) }

let maintains_version_index t =
  match t.fti_mode with
  | Fti_versions | Fti_both -> true
  | Fti_deltas | Fti_none -> false

let maintains_delta_index t =
  match t.fti_mode with
  | Fti_deltas | Fti_both -> true
  | Fti_versions | Fti_none -> false
