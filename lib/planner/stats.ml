module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Config = Txq_db.Config
module Fti = Txq_fti.Fti
module Delta_fti = Txq_fti.Delta_fti
module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid

(* Every number here is read off a structure the engine already maintains:
   per-word posting counters from the two-tier FTI, change-entry buckets
   from the delta index, chain bounds from the docstore, the commit
   watermark from the Db accounting record.  Nothing scans a posting list
   or reconstructs a version.  Lookups are memoized per handle — one
   handle lives for one query, so the statistics are a consistent-enough
   snapshot for costing (estimates, never answers). *)

type corpus = {
  docs_total : int;
  docs_live : int;
  versions : int;
  max_chain : int;
  watermark : int;
}

type route = A1 | A2

let route_to_string = function A1 -> "A1" | A2 -> "A2"

(* "No index can bound this": estimates saturate instead of lying. *)
let unknown = max_int / 4

type t = {
  db : Db.t;
  live : bool;
      (* the shared FTI's open-posting counters describe this handle's
         state: true on the live handle, false on a snapshot, where a
         posting closed past the pin was still open as of the pin and one
         opened past it did not exist *)
  has_a1 : bool;
  has_a2 : bool;
  mutable corpus_memo : corpus option;
  word_memo : (string * Vnode.occurrence_kind, int * int) Hashtbl.t;
      (* (history postings, open postings) from the A1 counters *)
  delta_memo : (string, int) Hashtbl.t; (* change entries from A2 *)
}

let create db =
  let config = Db.config db in
  {
    db;
    live = not (Db.is_snapshot db);
    has_a1 = Config.maintains_version_index config;
    has_a2 = Config.maintains_delta_index config;
    corpus_memo = None;
    word_memo = Hashtbl.create 16;
    delta_memo = Hashtbl.create 16;
  }

let db t = t.db
let has_a1 t = t.has_a1

let chain_len_of d = Docstore.version_count d - Docstore.first_version d

let corpus t =
  match t.corpus_memo with
  | Some c -> c
  | None ->
    let docs_total = ref 0
    and docs_live = ref 0
    and versions = ref 0
    and max_chain = ref 0 in
    List.iter
      (fun id ->
        match Db.doc_opt t.db id with
        | None -> ()
        | Some d ->
          incr docs_total;
          if Docstore.is_alive d then incr docs_live;
          let chain = chain_len_of d in
          versions := !versions + chain;
          if chain > !max_chain then max_chain := chain)
      (Db.doc_ids t.db);
    let c =
      {
        docs_total = !docs_total;
        docs_live = !docs_live;
        versions = !versions;
        max_chain = !max_chain;
        watermark = (Db.stats t.db).Db.commits;
      }
    in
    t.corpus_memo <- Some c;
    c

let avg_chain c =
  if c.docs_total = 0 then 1.0
  else Stdlib.max 1.0 (float_of_int c.versions /. float_of_int c.docs_total)

let chain_len t doc =
  match Db.doc_opt t.db doc with None -> 0 | Some d -> chain_len_of d

(* A1 per-word counters, under the read lock (the tail is writer-mutated). *)
let a1_counts t word kind =
  match Hashtbl.find_opt t.word_memo (word, kind) with
  | Some c -> c
  | None ->
    let c =
      if not t.has_a1 then (unknown, unknown)
      else
        Db.with_read t.db (fun () ->
            let fti = Db.fti t.db in
            ( Fti.word_postings fti word ~kind,
              Fti.word_open_postings fti word ~kind ))
    in
    Hashtbl.replace t.word_memo (word, kind) c;
    c

let a2_count t word =
  match Hashtbl.find_opt t.delta_memo word with
  | Some n -> n
  | None ->
    let n =
      if not t.has_a2 then unknown
      else
        Db.with_read t.db (fun () ->
            Delta_fti.word_entry_count (Db.delta_fti t.db) word)
    in
    Hashtbl.replace t.delta_memo word n;
    n

(* History cardinality of a word test, through whichever index bounds it
   tighter.  Both indexes see the same tokenizer, so a zero from either
   is a proof the word never occurred in any retained version. *)
let word_history t word kind =
  let a1, _ = a1_counts t word kind in
  let a2 = a2_count t word in
  if a1 <= a2 then (a1, A1) else (a2, A2)

let word_current t word kind =
  if t.live then (snd (a1_counts t word kind), A1) else word_history t word kind

let word_open t word kind = if t.live then snd (a1_counts t word kind) else 0

let doc_word_history t word kind doc =
  if not t.has_a1 then unknown
  else
    Db.with_read t.db (fun () ->
        Fti.doc_word_postings (Db.fti t.db) word ~kind ~doc)
