module Delta = Txq_vxml.Delta
module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid

(* Key identifying one occurrence position within a document: word, kind and
   XID path.  The path is the posting's own array, so the open-postings
   table holds no copy of it. *)
module Occ_key = struct
  type t = string * Vnode.occurrence_kind * Xid.t array

  let rec path_equal p q i =
    i < 0 || (Xid.equal (Array.unsafe_get p i) (Array.unsafe_get q i)
              && path_equal p q (i - 1))

  (* Paths of one document share long prefixes, so compare from the leaf. *)
  let equal ((w1, k1, p1) : t) ((w2, k2, p2) : t) =
    k1 == k2
    && Array.length p1 = Array.length p2
    && path_equal p1 p2 (Array.length p1 - 1)
    && String.equal w1 w2

  (* [Hashtbl.hash] samples only ~10 meaningful words of its input, so deep
     XID paths that differ past the sampled prefix collide systematically
     and degrade the open-postings table to linear chains.  Fold the whole
     path instead (FNV-1a over the XIDs, seeded with word and kind). *)
  let hash ((word, kind, path) : t) =
    let kind_bit = match kind with Vnode.Tag -> 0 | Vnode.Word -> 1 in
    let h = ref (Hashtbl.hash word lxor kind_bit) in
    for i = 0 to Array.length path - 1 do
      h := (!h lxor Xid.to_int (Array.unsafe_get path i)) * 0x01000193 land max_int
    done;
    !h

  (* The order new postings open in: word, then kind (Tag first), then
     path. *)
  let compare ((w1, k1, p1) : t) ((w2, k2, p2) : t) =
    match String.compare w1 w2 with
    | 0 -> (
      match Stdlib.compare k1 k2 with
      | 0 -> Txq_vxml.Xidpath.compare p1 p2
      | c -> c)
    | c -> c
end

module Occ_table = Hashtbl.Make (Occ_key)

(* An open posting and the last version whose walk met its occurrence. *)
type open_entry = { posting : Posting.t; mutable seen : int }

type doc_state = {
  (* Open posting per live occurrence position of the document: its keys
     are the occurrence set of the version indexed last. *)
  open_postings : open_entry Occ_table.t;
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
      { open_postings = Occ_table.create 64; last_version = -1 }
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

(* Appends a new posting to its word's tail, in the order the caller
   opens them. *)
let open_posting t ((word, kind, _) : Occ_key.t) posting =
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
  t.tail_postings <- t.tail_postings + 1

let close_posting t ~version ((word, kind, _) : Occ_key.t) entry =
  entry.posting.Posting.vend <- version;
  match Hashtbl.find_opt t.words word with
  | None -> ()
  | Some ws -> (
    match kind with
    | Vnode.Tag -> ws.open_tag <- ws.open_tag - 1
    | Vnode.Word -> ws.open_word <- ws.open_word - 1)

(* What a delta names, for the elements whose own occurrences (name,
   attributes, text-child words) or path may differ across it.  A key's
   path ends in its element's XID, so every other element's open postings
   stay as they are.  An element present in both versions must be marked
   in both walks or in neither: the old walk holds its open entries and
   the new walk restamps those still there. *)
type named =
  | Unnamed
  | Element  (** an element whose own occurrences change *)
  | Subtree  (** a node whose whole subtree changes or changes path *)
  | Updated_text  (** a text whose parent's words change *)

type marks = {
  named : named Xid.Table.t;
  (* One bit per XID modulo [8 * filter_bytes], set for each named XID: the
     walks ask about every node, few are named, and a bit test rules the
     others out faster than a hash lookup. *)
  filter : Bytes.t;
}

let filter_bytes = 128
let filter_byte x = (Xid.to_int x lsr 3) land (filter_bytes - 1)
let filter_bit x = 1 lsl (Xid.to_int x land 7)

let named m x =
  if Char.code (Bytes.unsafe_get m.filter (filter_byte x)) land filter_bit x = 0
  then Unnamed
  else match Xid.Table.find_opt m.named x with Some v -> v | None -> Unnamed

let marks (delta : Delta.t) =
  let m = { named = Xid.Table.create 16; filter = Bytes.make filter_bytes '\000' } in
  let name x v =
    match named m x with
    | Subtree -> ()
    | _ ->
      let b = filter_byte x in
      Bytes.set m.filter b
        (Char.chr (Char.code (Bytes.get m.filter b) lor filter_bit x));
      Xid.Table.replace m.named x v
  in
  List.iter
    (function
      | Delta.Insert { parent; tree; _ } | Delta.Delete { parent; tree; _ } ->
        name parent Element;
        name (Vnode.xid tree) Subtree
      | Delta.Update { xid; _ } -> name xid Updated_text
      | Delta.Rename { xid; _ } | Delta.Set_attr { xid; _ } -> name xid Element
      | Delta.Move { xid; old_parent; new_parent; _ } ->
        (* a moved text changes both parents' words *)
        name old_parent Element;
        name new_parent Element;
        name xid Subtree)
    delta.Delta.ops;
  m

(* An updated text stays with its parent unless an operation that names
   both parents moves it, so the parent is marked in both walks. *)
let rec updated_text_child m = function
  | [] -> false
  | Vnode.Text { xid; _ } :: rest -> (
    match named m xid with
    | Updated_text -> true
    | _ -> updated_text_child m rest)
  | Vnode.Elem _ :: rest -> updated_text_child m rest

let mark_of m (e : Vnode.elem) =
  match named m e.xid with
  | Subtree -> Vnode.Marked_subtree
  | Element | Updated_text -> Vnode.Marked
  | Unnamed -> if updated_text_child m e.children then Vnode.Marked else Vnode.Unmarked

(* One walk over the new version, probing the open postings directly: a
   hit stamps the entry seen; a miss creates the posting and its entry at
   once (so a repeated occurrence hits the second time) and queues it.
   Without [change] every element is walked and every open posting the
   walk did not stamp closes.  With [change] only the elements the delta
   marks are walked, in the old tree first to hold their open entries, and
   of those only the unstamped close.  The queued postings open sorted by
   key, the order a sorted occurrence-set diff would open them in, so each
   word's tail, and every lookup, keeps that order. *)
let index_version t ?change ~doc ~version vnode =
  let st = doc_state t doc in
  if version <= st.last_version then
    invalid_arg
      (Printf.sprintf
         "Fti.index_version: version %d of doc %d indexed out of order (last \
          %d)"
         version doc st.last_version);
  (match change with
   | Some _ when version <> st.last_version + 1 ->
     invalid_arg
       (Printf.sprintf
          "Fti.index_version: a change to version %d of doc %d must follow \
           version %d"
          version doc (version - 1))
   | _ -> ());
  let table = st.open_postings in
  let fresh = ref [] in
  let probe word kind path =
    let key = (word, kind, path) in
    match Occ_table.find table key with
    | entry -> entry.seen <- version
    | exception Not_found ->
      let posting = Posting.make ~doc ~kind ~path ~vstart:version in
      Occ_table.add table key { posting; seen = version };
      fresh := (key, posting) :: !fresh
  in
  let close key entry =
    close_posting t ~version key entry;
    Occ_table.remove table key
  in
  (match change with
   | None ->
     Vnode.iter_occurrences probe vnode;
     let gone = ref [] in
     Occ_table.iter
       (fun key entry ->
         if entry.seen <> version then gone := (key, entry) :: !gone)
       table;
     List.iter (fun (key, entry) -> close key entry) !gone
   | Some (old_tree, delta) ->
     let m = marks delta in
     let mark e = mark_of m e in
     let held = ref [] in
     Vnode.iter_marked_occurrences mark
       (fun word kind path ->
         let key = (word, kind, path) in
         match Occ_table.find table key with
         | entry -> held := (key, entry) :: !held
         | exception Not_found ->
           invalid_arg
             (Printf.sprintf
                "Fti.index_version: the old tree of doc %d is not version %d"
                doc st.last_version))
       old_tree;
     Vnode.iter_marked_occurrences mark probe vnode;
     List.iter
       (fun (key, entry) ->
         if entry.seen <> version then begin
           close key entry;
           (* a repeated occurrence is held once per repeat *)
           entry.seen <- version
         end)
       !held);
  List.iter
    (fun (key, posting) -> open_posting t key posting)
    (List.sort (fun (a, _) (b, _) -> Occ_key.compare a b) !fresh);
  st.last_version <- version;
  (* One [index_version] call is one commit of the document, so the
     watermark check here is the "freeze on commit boundaries" trigger. *)
  maybe_freeze t

let delete_document t ~doc ~version =
  match Hashtbl.find_opt t.docs doc with
  | None -> ()
  | Some st ->
    Occ_table.iter (close_posting t ~version) st.open_postings;
    Occ_table.reset st.open_postings;
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

(* Shared filter shape: the frozen slice (already in total order) merged
   with the sorted tail, so every lookup answers in [Posting.compare_total]
   order — the same list whatever freeze history or opening order produced
   the split, as for a store and its recovery. *)
let merge_tail frozen tail =
  List.merge Posting.compare_total frozen (List.sort Posting.compare_total tail)

let filtered st pred =
  let out = ref [] in
  (match frozen_of st with
   | None -> ()
   | Some seg ->
     let arr = Segment.postings seg in
     for i = Array.length arr - 1 downto 0 do
       if pred arr.(i) then out := arr.(i) :: !out
     done);
  merge_tail !out (List.filter pred st.tail)

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
          merge_tail !out (List.filter (fun p -> p.Posting.doc = doc) st.tail)))

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

let word_count t = Hashtbl.length t.words
let posting_count t = t.postings
let vocabulary t = Hashtbl.fold (fun w _ acc -> w :: acc) t.words []
let freeze_count t = t.freezes
let tail_posting_count t = t.tail_postings

let segment_count t =
  Hashtbl.fold (fun _ st n -> n + List.length st.segs) t.words 0

let frozen_posting_count t =
  Hashtbl.fold
    (fun _ st n ->
      n + List.fold_left (fun n s -> n + Segment.length s) 0 st.segs)
    t.words 0

let occ_key_hash = Occ_key.hash

let frozen_bytes t =
  Hashtbl.fold
    (fun _ st n ->
      n + List.fold_left (fun n s -> n + Segment.approx_bytes s) 0 st.segs)
    t.words 0

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

type stats = {
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
