(* The FTI maintenance this repository shipped before indexing each version
   against the open postings: every version builds its whole sorted
   occurrence set and diffs it against the previous one.  Kept verbatim as
   the reference the differential tests compare [Txq_fti.Fti] against,
   apart from this header, the module aliases, [stats] re-exporting
   [Fti.stats], and two left-out groups: the accessors [stats] already
   covers and the deep-path hash test's hook.  The occurrence walk and
   tokenizer are the previous [Txq_vxml.Vnode] ones, so the oracle shares
   no maintenance code with the index under test. *)

module Posting = Txq_fti.Posting
module Segment = Txq_fti.Segment
module Xid = Txq_vxml.Xid
module Xidpath = Txq_vxml.Xidpath

module Vnode = struct
  open Txq_vxml.Vnode

  type nonrec occurrence_kind = occurrence_kind = Tag | Word

  type occurrence = {
    occ_word : string;
    occ_kind : occurrence_kind;
    occ_path : Xid.t array;
  }

  let split_words s =
    let is_sep c =
      match c with
      | ' ' | '\t' | '\n' | '\r' | ',' | ';' | '.' | '!' | '?' | '(' | ')' | '"'
        -> true
      | _ -> false
    in
    let out = ref [] in
    let buf = Buffer.create 16 in
    let flush () =
      if Buffer.length buf > 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
    in
    String.iter (fun c -> if is_sep c then flush () else Buffer.add_char buf c) s;
    flush ();
    List.rev !out

  let occurrences root =
    let acc = ref [] in
    let emit occ_word occ_kind rev_path =
      acc :=
        { occ_word; occ_kind; occ_path = Array.of_list (List.rev rev_path) }
        :: !acc
    in
    (* [rev_path] is the reversed XID path of the current enclosing element. *)
    let rec go rev_path node =
      match node with
      | Text { content; _ } ->
        List.iter (fun w -> emit w Word rev_path) (split_words content)
      | Elem e ->
        let here = e.xid :: rev_path in
        emit e.tag Tag here;
        List.iter
          (fun (n, v) ->
            emit n Word here;
            List.iter (fun w -> emit w Word here) (split_words v))
          e.attrs;
        List.iter (go here) e.children
    in
    go [] root;
    List.rev !acc

  module Occ_set = Set.Make (struct
    type t = string * occurrence_kind * Xid.t array

    let compare (w1, k1, p1) (w2, k2, p2) =
      match String.compare w1 w2 with
      | 0 -> (
        match Stdlib.compare k1 k2 with
        | 0 -> Xidpath.compare p1 p2
        | c -> c)
      | c -> c
  end)

  let occurrence_set root =
    List.fold_left
      (fun set { occ_word; occ_kind; occ_path } ->
        Occ_set.add (occ_word, occ_kind, occ_path) set)
      Occ_set.empty (occurrences root)
end

(* Key identifying one occurrence position within a document: word, kind and
   XID path.  XIDs are ints underneath, so structural hashing and equality on
   the triple are sound. *)
module Occ_key = struct
  type t = string * Vnode.occurrence_kind * int array

  let of_occ (word, kind, path) : t =
    (word, kind, Array.map Txq_vxml.Xid.to_int path)

  let equal (a : t) (b : t) = a = b

  (* [Hashtbl.hash] samples only ~10 meaningful words of its input, so deep
     XID paths that differ past the sampled prefix collide systematically
     and degrade the open-postings table to linear chains.  Fold the whole
     path instead (FNV-1a over the ints, seeded with word and kind). *)
  let hash ((word, kind, path) : t) =
    let kind_bit = match kind with Vnode.Tag -> 0 | Vnode.Word -> 1 in
    let h = ref (Hashtbl.hash word lxor kind_bit) in
    Array.iter (fun x -> h := (!h lxor x) * 0x01000193 land max_int) path;
    !h
end

module Occ_table = Hashtbl.Make (Occ_key)

type doc_state = {
  (* Open posting per live occurrence position of the document. *)
  open_postings : Posting.t Occ_table.t;
  (* The occurrence set of the version indexed last, to diff against. *)
  mutable current_occs : Vnode.Occ_set.t;
  mutable last_version : int;
}

(* Two-tier per-word index: a small mutable tail of postings opened since
   the last freeze (newest first, the only part writes touch) above a stack
   of immutable frozen segments.  Reads compact the stack to one segment,
   so every read path sees at most one sorted run plus the tail. *)
type word_state = {
  mutable tail : Posting.t list; (* newest first *)
  mutable tail_n : int;
  mutable segs : Segment.t list; (* newest first *)
  (* Live cardinality counters, maintained on open/close/vacuum: the
     planner's per-word selectivity estimates read them in O(1), with no
     posting-list walk.  Split by occurrence kind because a string used
     both as an element name and as a text word has very different
     selectivities under Tag and Word tests. *)
  mutable n_tag : int; (* postings ever opened as Tag, minus vacuumed *)
  mutable n_word : int;
  mutable open_tag : int; (* of those, still open (current versions) *)
  mutable open_word : int;
}

type t = {
  words : (string, word_state) Hashtbl.t;
  docs : (Txq_vxml.Eid.doc_id, doc_state) Hashtbl.t;
  mutable postings : int;
  (* freeze protocol *)
  watermark : int; (* tail postings triggering a freeze; max_int = never *)
  mutable tail_postings : int; (* across all words *)
  mutable freezes : int;
}

(* New tail runs pile up as separate segments until this many exist, then
   one k-way merge folds them (bulk loads freeze often but read rarely;
   merging every freeze would rewrite each word's whole run every time). *)
let merge_fanout = 4

let default_watermark = 4096

let create ?(segment_postings = default_watermark) () =
  {
    words = Hashtbl.create 1024;
    docs = Hashtbl.create 64;
    postings = 0;
    watermark = (if segment_postings <= 0 then max_int else segment_postings);
    tail_postings = 0;
    freezes = 0;
  }

let word_state t word =
  match Hashtbl.find_opt t.words word with
  | Some st -> st
  | None ->
    let st =
      { tail = []; tail_n = 0; segs = [];
        n_tag = 0; n_word = 0; open_tag = 0; open_word = 0 }
    in
    Hashtbl.replace t.words word st;
    st

let doc_state t doc =
  match Hashtbl.find_opt t.docs doc with
  | Some st -> st
  | None ->
    let st =
      {
        open_postings = Occ_table.create 64;
        current_occs = Vnode.Occ_set.empty;
        last_version = -1;
      }
    in
    Hashtbl.replace t.docs doc st;
    st

(* --- freeze protocol --------------------------------------------------- *)

(* Move every word's tail into a fresh frozen segment (sorting only the
   tail run), k-way merging a word's stack down when it reaches the
   fanout.  Posting records are shared between tiers, so open postings
   frozen here still close in place on later versions. *)
let freeze t =
  if t.tail_postings > 0 then begin
    let frozen_now = t.tail_postings in
    Hashtbl.iter
      (fun _ st ->
        if st.tail_n > 0 then begin
          let run = Segment.of_unsorted (Array.of_list st.tail) in
          st.tail <- [];
          st.tail_n <- 0;
          st.segs <- run :: st.segs;
          if List.length st.segs >= merge_fanout then
            st.segs <- [ Segment.merge st.segs ]
        end)
      t.words;
    t.tail_postings <- 0;
    t.freezes <- t.freezes + 1;
    Txq_obs.Metrics.incr "fti.freezes";
    Txq_obs.Metrics.incr ~by:frozen_now "fti.postings_frozen"
  end

let maybe_freeze t = if t.tail_postings >= t.watermark then freeze t

(* Compact a word's segment stack to one run; amortized over reads, and a
   no-op for the common 0/1-segment cases. *)
let frozen_of st =
  match st.segs with
  | [] -> None
  | [ s ] -> Some s
  | many ->
    let s = Segment.merge many in
    st.segs <- [ s ];
    Some s

(* --- maintenance -------------------------------------------------------- *)

let open_posting t ~doc ~version st ((word, kind, path) as occ) =
  let posting = Posting.make ~doc ~kind ~path ~vstart:version in
  let ws = word_state t word in
  ws.tail <- posting :: ws.tail;
  ws.tail_n <- ws.tail_n + 1;
  (match kind with
   | Vnode.Tag ->
     ws.n_tag <- ws.n_tag + 1;
     ws.open_tag <- ws.open_tag + 1
   | Vnode.Word ->
     ws.n_word <- ws.n_word + 1;
     ws.open_word <- ws.open_word + 1);
  t.postings <- t.postings + 1;
  t.tail_postings <- t.tail_postings + 1;
  Occ_table.replace st.open_postings (Occ_key.of_occ occ) posting

let close_posting t ~version st ((word, kind, _) as occ) =
  let key = Occ_key.of_occ occ in
  match Occ_table.find_opt st.open_postings key with
  | Some posting ->
    posting.Posting.vend <- version;
    Occ_table.remove st.open_postings key;
    (match Hashtbl.find_opt t.words word with
     | None -> ()
     | Some ws -> (
       match kind with
       | Vnode.Tag -> ws.open_tag <- ws.open_tag - 1
       | Vnode.Word -> ws.open_word <- ws.open_word - 1))
  | None -> ()

let index_version t ~doc ~version vnode =
  let st = doc_state t doc in
  if version <= st.last_version then
    invalid_arg
      (Printf.sprintf
         "Fti.index_version: version %d of doc %d indexed out of order (last \
          %d)"
         version doc st.last_version);
  let occs = Vnode.occurrence_set vnode in
  let removed = Vnode.Occ_set.diff st.current_occs occs in
  let added = Vnode.Occ_set.diff occs st.current_occs in
  Vnode.Occ_set.iter (close_posting t ~version st) removed;
  Vnode.Occ_set.iter (open_posting t ~doc ~version st) added;
  st.current_occs <- occs;
  st.last_version <- version;
  (* One [index_version] call is one commit of the document, so the
     watermark check here is the "freeze on commit boundaries" trigger. *)
  maybe_freeze t

let delete_document t ~doc ~version =
  match Hashtbl.find_opt t.docs doc with
  | None -> ()
  | Some st ->
    Vnode.Occ_set.iter (close_posting t ~version st) st.current_occs;
    st.current_occs <- Vnode.Occ_set.empty;
    st.last_version <- version

(* --- vacuum ------------------------------------------------------------- *)

(* Remove every posting the retention truncation makes unreachable: all
   postings of dropped documents, and closed postings ending at or before a
   squashed document's new base version.  A surviving posting that spans the
   truncation point has its [vstart] clamped up to the base — exactly the
   posting a from-scratch rebuild of the truncated chain would open at the
   base version.  Filtering preserves segment order: within one (doc, path,
   kind) position at most one posting can span the base (intervals are
   disjoint and an occurrence closed at the base cannot also reopen there),
   so clamping never creates an order violation. *)
let vacuum t ~affected =
  let actions = Hashtbl.create 16 in
  List.iter (fun (doc, action) -> Hashtbl.replace actions doc action) affected;
  let keep p =
    match Hashtbl.find_opt actions p.Posting.doc with
    | None -> true
    | Some `Drop -> false
    | Some (`Squash base) ->
      if p.Posting.vend <> Posting.open_end && p.Posting.vend <= base then false
      else begin
        if p.Posting.vstart < base then p.Posting.vstart <- base;
        true
      end
  in
  let removed = ref 0 in
  let removed_tail = ref 0 in
  Hashtbl.filter_map_inplace
    (fun _ st ->
      let tail = List.filter keep st.tail in
      let tail_n = List.length tail in
      removed_tail := !removed_tail + (st.tail_n - tail_n);
      st.tail <- tail;
      st.tail_n <- tail_n;
      st.segs <-
        List.filter_map
          (fun seg ->
            let arr = Segment.postings seg in
            let kept = Array.of_list (List.filter keep (Array.to_list arr)) in
            let dropped = Array.length arr - Array.length kept in
            removed := !removed + dropped;
            if dropped = 0 then Some seg
            else if Array.length kept = 0 then None
            else Some (Segment.of_sorted kept))
          st.segs;
      (* Vacuum already walks every posting; recount the cardinality
         counters in the same pass rather than tracking which of the
         filtered postings were open. *)
      st.n_tag <- 0;
      st.n_word <- 0;
      st.open_tag <- 0;
      st.open_word <- 0;
      let count p =
        let opened = if Posting.is_open p then 1 else 0 in
        match p.Posting.kind with
        | Vnode.Tag ->
          st.n_tag <- st.n_tag + 1;
          st.open_tag <- st.open_tag + opened
        | Vnode.Word ->
          st.n_word <- st.n_word + 1;
          st.open_word <- st.open_word + opened
      in
      List.iter count st.tail;
      List.iter (fun seg -> Array.iter count (Segment.postings seg)) st.segs;
      if st.tail_n = 0 && st.segs = [] then None else Some st)
    t.words;
  removed := !removed + !removed_tail;
  t.tail_postings <- t.tail_postings - !removed_tail;
  t.postings <- t.postings - !removed;
  List.iter
    (fun (doc, action) ->
      match action with
      | `Drop -> Hashtbl.remove t.docs doc
      | `Squash _ -> ())
    affected;
  !removed

(* --- lookups ------------------------------------------------------------ *)

(* Each lookup variant traces postings scanned vs returned — the
   quantities Section 7.2 argues with.  The [Trace.enabled] guard keeps
   the disabled path free of the extra list walks. *)
let traced name word scanned result =
  if not (Txq_obs.Trace.enabled ()) then result ()
  else
    Txq_obs.Trace.with_span name
      ~attrs:[ ("word", Txq_obs.Span.Str word) ]
      (fun () ->
        let r = result () in
        Txq_obs.Trace.add_count "postings_scanned" (scanned ());
        Txq_obs.Trace.add_count "postings" (List.length r);
        r)

(* Shared filter shape: frozen slice, then the tail, the whole answer
   sorted into [Posting.compare_total] order — the order [Txq_fti.Fti]'s
   lookups promise, whatever freeze history produced the split. *)
let filtered st pred =
  let out = ref [] in
  (match frozen_of st with
   | None -> ()
   | Some seg ->
     let arr = Segment.postings seg in
     for i = Array.length arr - 1 downto 0 do
       if pred arr.(i) then out := arr.(i) :: !out
     done);
  List.sort Posting.compare_total (!out @ List.filter pred st.tail)

let scanned_of t word () =
  match Hashtbl.find_opt t.words word with
  | None -> 0
  | Some st ->
    st.tail_n + List.fold_left (fun n s -> n + Segment.length s) 0 st.segs

let with_word t word f =
  match Hashtbl.find_opt t.words word with None -> [] | Some st -> f st

let lookup t word =
  traced "fti.lookup" word (scanned_of t word) (fun () ->
      with_word t word (fun st -> filtered st Posting.is_open))

let lookup_t t word ~version_at =
  traced "fti.lookup_t" word (scanned_of t word) (fun () ->
      with_word t word (fun st ->
          filtered st (fun p ->
              match version_at p.Posting.doc with
              | Some v -> Posting.valid_at p v
              | None -> false)))

let lookup_h t word =
  traced "fti.lookup_h" word (scanned_of t word) (fun () ->
      with_word t word (fun st -> filtered st (fun _ -> true)))

(* The history lookup the pattern scan hammers per document: a fence
   binary search plus a contiguous slice, O(log d + k) instead of a filter
   over the word's whole posting list. *)
let lookup_h_doc t word ~doc =
  traced "fti.lookup_h_doc" word
    (fun () ->
      match Hashtbl.find_opt t.words word with
      | None -> 0
      | Some st ->
        st.tail_n
        + List.fold_left
            (fun n s ->
              let a, b = Segment.doc_bounds s ~doc in
              n + (b - a))
            0 st.segs)
    (fun () ->
      with_word t word (fun st ->
          let out = ref [] in
          (match frozen_of st with
           | None -> ()
           | Some seg ->
             let arr = Segment.postings seg in
             let start, stop = Segment.doc_bounds seg ~doc in
             for i = stop - 1 downto start do
               out := arr.(i) :: !out
             done);
          List.sort Posting.compare_total
            (!out @ List.filter (fun p -> p.Posting.doc = doc) st.tail)))

(* --- sorted fetch for the pattern-scan join ----------------------------- *)

(* All postings of (word, kind) as one array in [Posting.compare_total]
   order: the frozen run is kind-filtered (filtering preserves order) and
   merged with the sorted, kind-filtered tail.  With a compacted segment
   and a watermark-bounded tail this performs no full sort — the per-query
   sorting the old scan engine paid is gone. *)
let sorted_postings t word ~kind =
  let build () =
    match Hashtbl.find_opt t.words word with
    | None -> [||]
    | Some st ->
      let tail_run =
        Array.of_list
          (List.filter (fun p -> p.Posting.kind = kind) st.tail)
      in
      Array.sort Posting.compare_total tail_run;
      let frozen_run =
        match frozen_of st with
        | None -> [||]
        | Some seg ->
          let arr = Segment.postings seg in
          let n = ref 0 in
          Array.iter (fun p -> if p.Posting.kind = kind then incr n) arr;
          if !n = Array.length arr then arr
          else begin
            let out = ref [] in
            for i = Array.length arr - 1 downto 0 do
              if arr.(i).Posting.kind = kind then out := arr.(i) :: !out
            done;
            match !out with
            | [] -> [||]
            | l -> Array.of_list l
          end
      in
      if Array.length tail_run = 0 then frozen_run
      else if Array.length frozen_run = 0 then tail_run
      else begin
        (* two-way merge of sorted runs *)
        let na = Array.length frozen_run and nb = Array.length tail_run in
        let out = Array.make (na + nb) frozen_run.(0) in
        let i = ref 0 and j = ref 0 in
        for slot = 0 to na + nb - 1 do
          let take_a =
            !j >= nb
            || (!i < na
                && Posting.compare_total frozen_run.(!i) tail_run.(!j) <= 0)
          in
          if take_a then begin
            out.(slot) <- frozen_run.(!i);
            incr i
          end
          else begin
            out.(slot) <- tail_run.(!j);
            incr j
          end
        done;
        out
      end
  in
  if not (Txq_obs.Trace.enabled ()) then build ()
  else
    Txq_obs.Trace.with_span "fti.sorted_postings"
      ~attrs:[ ("word", Txq_obs.Span.Str word) ]
      (fun () ->
        let r = build () in
        Txq_obs.Trace.add_count "postings" (Array.length r);
        r)

(* --- stats -------------------------------------------------------------- *)

let posting_count t = t.postings
let vocabulary t = Hashtbl.fold (fun w _ acc -> w :: acc) t.words []

(* --- cardinality statistics (planner feed) ------------------------------ *)

let word_postings t word ~kind =
  match Hashtbl.find_opt t.words word with
  | None -> 0
  | Some st -> ( match kind with Vnode.Tag -> st.n_tag | Vnode.Word -> st.n_word)

let word_open_postings t word ~kind =
  match Hashtbl.find_opt t.words word with
  | None -> 0
  | Some st -> (
    match kind with Vnode.Tag -> st.open_tag | Vnode.Word -> st.open_word)

(* Per-document refinement: frozen postings are counted through the
   segment fences (binary search, no walk of other documents); only the
   matched document's slice is scanned to split by kind, plus the
   watermark-bounded tail. *)
let doc_word_postings t word ~kind ~doc =
  match Hashtbl.find_opt t.words word with
  | None -> 0
  | Some st ->
    let n = ref 0 in
    List.iter
      (fun seg ->
        Segment.iter_doc seg ~doc (fun p ->
            if p.Posting.kind = kind then incr n))
      st.segs;
    List.iter
      (fun p -> if p.Posting.doc = doc && p.Posting.kind = kind then incr n)
      st.tail;
    !n

type stats = Txq_fti.Fti.stats = {
  fs_words : int;
  fs_postings : int;
  fs_open_postings : int;
  fs_tail_postings : int;
  fs_frozen_postings : int;
  fs_segments : int;
  fs_frozen_bytes : int;
  fs_freezes : int;
}

let stats t =
  let open_postings, segments, frozen, bytes =
    Hashtbl.fold
      (fun _ st (o, s, f, b) ->
        ( o + st.open_tag + st.open_word,
          s + List.length st.segs,
          f + List.fold_left (fun n seg -> n + Segment.length seg) 0 st.segs,
          b + List.fold_left (fun n seg -> n + Segment.approx_bytes seg) 0 st.segs
        ))
      t.words (0, 0, 0, 0)
  in
  {
    fs_words = Hashtbl.length t.words;
    fs_postings = t.postings;
    fs_open_postings = open_postings;
    fs_tail_postings = t.tail_postings;
    fs_frozen_postings = frozen;
    fs_segments = segments;
    fs_frozen_bytes = bytes;
    fs_freezes = t.freezes;
  }

let occurrence_count tree ~word =
  Vnode.Occ_set.cardinal
    (Vnode.Occ_set.filter
       (fun (w, _, _) -> String.equal w word)
       (Vnode.occurrence_set tree))
