module Eid = Txq_vxml.Eid
module Xidpath = Txq_vxml.Xidpath
module Vnode = Txq_vxml.Vnode
module Posting = Txq_fti.Posting
module Fti = Txq_fti.Fti
module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Timestamp = Txq_temporal.Timestamp

type binding = {
  b_doc : Eid.doc_id;
  b_path : Xidpath.t;
  b_versions : Vrange.t;
}

let eid_of_binding b =
  match Xidpath.leaf b.b_path with
  | Some xid -> Eid.make ~doc:b.b_doc ~xid
  | None -> invalid_arg "Scan.eid_of_binding: empty path"

(* --- join engine ------------------------------------------------------ *)

(* A candidate: one posting of a pattern node, with the versions in which it
   is valid, the output binding (when the output node lies in this subtree)
   and its XID path. *)
type cand = {
  c_path : Xidpath.t;
  c_out : Xidpath.t option;
  c_versions : Vrange.t;
}

(* An open posting's [vend] is [Posting.open_end] = [max_int], the open
   upper bound of a version range. *)
let range_of_posting p = Vrange.singleton p.Posting.vstart p.Posting.vend

(* --- sorted-array search primitives ----------------------------------- *)

(* First index >= [hint] at which [pred] holds.  [pred] must be monotone
   (false then true) over [arr], and the boundary must not lie before
   [hint] — callers walk rows in path order, so boundaries only move right
   and the previous answer is a valid hint.  Galloping from the hint makes
   a whole constrain pass linear in the distance actually traveled rather
   than O(rows · log matches). *)
let gallop arr ~hint pred =
  let n = Array.length arr in
  if hint >= n then n
  else if pred arr.(hint) then hint
  else begin
    (* exponential probe for the first true element *)
    let step = ref 1 in
    let last_false = ref hint in
    let probe = ref (hint + 1) in
    while !probe < n && not (pred arr.(!probe)) do
      last_false := !probe;
      step := !step * 2;
      probe := !probe + !step
    done;
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if pred arr.(mid) then bisect lo mid else bisect (mid + 1) hi
    in
    bisect (!last_false + 1) (Stdlib.min !probe n)
  end

(* Evaluate a pattern node against the postings of one document.  [fetch]
   returns that document's postings for a word and kind, sorted by path.
   The returned candidates are sorted by [c_path] (non-decreasing): the
   fetched posting arrays are path-sorted, and constraining preserves row
   order. *)
let rec eval_node ~fetch (p : Pattern.t) : cand array =
  let kind =
    match p.Pattern.test with
    | Pattern.Tag _ -> Vnode.Tag
    | Pattern.Word _ -> Vnode.Word
  in
  let word =
    match p.Pattern.test with
    | Pattern.Tag w | Pattern.Word w -> w
  in
  let own =
    Array.map
      (fun posting ->
        {
          c_path = posting.Posting.path;
          c_out = (if p.Pattern.output then Some posting.Posting.path else None);
          c_versions = range_of_posting posting;
        })
      (fetch word kind)
  in
  (* [constrain [] child m] is [] for any [m], so once the row set is
     empty the remaining child subtrees need not be fetched or joined at
     all — this is what makes selective-leg-first ordering pay: the first
     empty leg discharges every leg after it. *)
  List.fold_left
    (fun rows child ->
      if Array.length rows = 0 then rows
      else constrain rows child (eval_node ~fetch child))
    own p.Pattern.children

(* Constrain each row by one pattern child.  Because [Xidpath.compare]
   sorts a path immediately before its extensions, the candidates standing
   in any hierarchical relation to [row.c_path] form a contiguous run of
   [matches]: equal paths first, then strict extensions.  Two galloping
   searches delimit the run — the merge-join replacement for the old
   O(rows × matches) relation filter.  Non-output children contribute the
   union of their matching validities; an output-bearing child multiplies
   the row into one per matching candidate. *)
and constrain rows child matches =
  let child_has_output = Pattern.has_output child in
  let out = ref [] in
  let hint = ref 0 in
  Array.iter
    (fun row ->
      let start =
        gallop matches ~hint:!hint
          (fun m -> Xidpath.compare m.c_path row.c_path >= 0)
      in
      hint := start;
      (* end of the equal-path run, then end of the extension run *)
      let eq_stop =
        gallop matches ~hint:start
          (fun m -> Xidpath.compare m.c_path row.c_path > 0)
      in
      let stop =
        gallop matches ~hint:eq_stop
          (fun m -> not (Xidpath.is_prefix row.c_path m.c_path))
      in
      (* Tag tests carry the path of the element itself; word tests carry
         the path of the enclosing element (see Vnode.occurrence). *)
      let m_start, m_stop, child_depth =
        match (child.Pattern.test, child.Pattern.axis) with
        | Pattern.Word _, Pattern.Child -> (start, eq_stop, None)
        | Pattern.Word _, Pattern.Descendant -> (start, stop, None)
        | Pattern.Tag _, Pattern.Descendant -> (eq_stop, stop, None)
        | Pattern.Tag _, Pattern.Child ->
          (eq_stop, stop, Some (Xidpath.depth row.c_path + 1))
      in
      let matching f =
        for i = m_start to m_stop - 1 do
          let m = matches.(i) in
          match child_depth with
          | Some d when Xidpath.depth m.c_path <> d -> ()
          | _ -> f m
        done
      in
      if child_has_output then
        matching (fun m ->
            let versions = Vrange.inter row.c_versions m.c_versions in
            if not (Vrange.is_empty versions) then
              out := { row with c_out = m.c_out; c_versions = versions } :: !out)
      else begin
        let valid = ref Vrange.empty in
        matching (fun m -> valid := Vrange.union !valid m.c_versions);
        let versions = Vrange.inter row.c_versions !valid in
        if not (Vrange.is_empty versions) then
          out := { row with c_versions = versions } :: !out
      end)
    rows;
  Array.of_list (List.rev !out)

(* Root axis: a [Child] root must be the document root element. *)
let root_ok (p : Pattern.t) cand =
  match p.Pattern.axis with
  | Pattern.Child -> Xidpath.depth cand.c_path = 1
  | Pattern.Descendant -> true

(* Dedup bindings (the same output node can be reached through different
   intermediate matches) and merge their version sets. *)
let dedup bindings =
  let table = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun b ->
      let key = (b.b_doc, Array.map Txq_vxml.Xid.to_int b.b_path) in
      match Hashtbl.find_opt table key with
      | Some prev ->
        Hashtbl.replace table key
          { prev with b_versions = Vrange.union prev.b_versions b.b_versions }
      | None ->
        Hashtbl.replace table key b;
        order := key :: !order)
    bindings;
  List.rev_map (Hashtbl.find table) !order

(* The engine fetches each distinct (word, kind) of the pattern once from
   the FTI, pre-sorted by (doc, path, vstart) — frozen segments keep that
   order at rest, so no per-query sort happens — and joins per candidate
   document.  Documents are independent, so the per-document work is
   distributed over a domain pool; tasks are indexed by ascending document
   id and results concatenated in task order, making the output identical
   for every [domains] value.

   Everything effectful happens on the calling domain: FTI fetches and
   their trace spans, version resolution, the final dedup.  Workers only
   read frozen hashtables and posting arrays. *)

let kind_of = function
  | Pattern.Tag _ -> Vnode.Tag
  | Pattern.Word _ -> Vnode.Word

(* Distinct (word, kind) tests of a pattern, root first. *)
let rec tests_of (p : Pattern.t) acc =
  let t =
    match p.Pattern.test with
    | (Pattern.Tag w | Pattern.Word w) as t -> (w, kind_of t)
  in
  let acc = if List.mem t acc then acc else t :: acc in
  List.fold_left (fun acc c -> tests_of c acc) acc p.Pattern.children

let doc_slice arr doc =
  let start = gallop arr ~hint:0 (fun p -> p.Posting.doc >= doc) in
  let stop = gallop arr ~hint:start (fun p -> p.Posting.doc > doc) in
  (start, stop)

let distinct_docs arr =
  Array.fold_left
    (fun acc p ->
      match acc with
      | d :: _ when d = p.Posting.doc -> acc
      | _ -> p.Posting.doc :: acc)
    [] arr
  |> List.rev

(* Minimum candidate documents a spawned scan domain must amortize: below
   it a multi-domain scan runs inline, since spawn cost dwarfs the work. *)
let min_docs = 48

(* [at], when given, makes the engine a snapshot operator: [at doc] names
   the version each candidate document is read at ([None]: it has none).
   It runs once per candidate document of the root postings, on the
   calling domain; a worker keeps a posting iff it is valid at its
   document's version and binds that version alone — a snapshot
   operator's TEIDs name the version valid at the query time (Section
   6.1), however many versions a posting spans.  Without [at] the engine
   joins whole histories. *)
let engine ~domains ?at pattern ~fetch_all =
  (match Pattern.validate pattern with
   | Ok () -> ()
   | Error e -> invalid_arg ("Scan: invalid pattern: " ^ e));
  (* main domain: fetch every test's postings once *)
  let fetched =
    List.map (fun (w, k) -> ((w, k), fetch_all w k)) (tests_of pattern [])
  in
  let postings_for word kind = List.assoc (word, kind) fetched in
  let root_arr =
    match pattern.Pattern.test with
    | (Pattern.Tag w | Pattern.Word w) as t -> postings_for w (kind_of t)
  in
  let candidates = distinct_docs root_arr in
  let tasks =
    match at with
    | None -> List.map (fun doc -> (doc, None)) candidates
    | Some version_of ->
      List.filter_map
        (fun doc ->
          match version_of doc with
          | None -> None
          | Some v ->
            let start, stop = doc_slice root_arr doc in
            let rec any i =
              i < stop && (Posting.valid_at root_arr.(i) v || any (i + 1))
            in
            if any start then Some (doc, Some v) else None)
        candidates
  in
  let fetch_doc (doc, version) word kind =
    let arr = postings_for word kind in
    let start, stop = doc_slice arr doc in
    match version with
    | None -> Array.sub arr start (stop - start)
    | Some v ->
      (* filtering a sorted slice preserves its order *)
      let out = ref [] in
      for i = stop - 1 downto start do
        if Posting.valid_at arr.(i) v then out := arr.(i) :: !out
      done;
      Array.of_list !out
  in
  let scan_doc ((doc, version) as task) =
    let cands = eval_node ~fetch:(fetch_doc task) pattern in
    let out = ref [] in
    Array.iter
      (fun c ->
        if root_ok pattern c then
          match c.c_out with
          | Some path ->
            let versions =
              match version with
              | None -> c.c_versions
              | Some v -> Vrange.singleton v (v + 1)
            in
            out := { b_doc = doc; b_path = path; b_versions = versions } :: !out
          | None -> ())
      cands;
    List.rev !out
  in
  let per_doc =
    Dpool.map ~min_per_task:min_docs ~domains (Array.of_list tasks) scan_doc
  in
  dedup (List.concat (Array.to_list per_doc))

(* One span per operator invocation; the FTI lookups it performs show up
   as child spans carrying the postings counts.  [est] is the caller's
   cardinality estimate (the planner's), recorded next to the actual
   binding count so EXPLAIN ANALYZE can report estimation error. *)
let traced ?est name pattern f =
  if not (Txq_obs.Trace.enabled ()) then f ()
  else
    Txq_obs.Trace.with_span name
      ~attrs:[ ("pattern", Txq_obs.Span.Str (Pattern.to_string pattern)) ]
      (fun () ->
        let r = f () in
        (match est with
         | Some e -> Txq_obs.Trace.add_count "est_rows" e
         | None -> ());
        Txq_obs.Trace.add_count "bindings" (List.length r);
        r)

let domains_of db = function
  | Some n -> if n < 1 then 1 else n
  | None -> (Db.config db).Txq_db.Config.domains

(* Each fetch runs with the writer excluded: the FTI's mutable tail and
   segment freezing are writer-mutated.  Per-fetch locking is enough for
   snapshots: every answer is read at versions of the handle's own pinned
   views, so commits landing between two fetches cannot leak into it. *)
let fetch_all db word kind =
  Db.with_read db (fun () -> Fti.sorted_postings (Db.fti db) word ~kind)

(* Pattern scan at one version per document: [version_of] resolves it
   through the handle's own docstore views, so the live handle and a
   snapshot take the same path. *)
let scan_at ?domains db pattern version_of =
  engine ~domains:(domains_of db domains) ~at:version_of pattern
    ~fetch_all:(fetch_all db)

let pattern_scan ?domains ?est db pattern =
  traced ?est "scan.pattern_scan" pattern @@ fun () ->
  scan_at ?domains db pattern (fun doc ->
      match Db.doc_opt db doc with
      | Some d when Docstore.is_alive d -> Some (Docstore.version_count d - 1)
      | Some _ | None -> None)

let tpattern_scan ?domains ?est db pattern ts =
  traced ?est "scan.tpattern_scan" pattern @@ fun () ->
  scan_at ?domains db pattern (fun doc ->
      Option.bind (Db.doc_opt db doc) (fun d -> Docstore.version_at d ts))

(* History bindings as the handle's views see them.  Postings are shared
   with the live writer, so a range can outrun a snapshot's view of its
   document: a range starting at or past the view's version count is
   dropped; one ending past the count, or at it while the view's document
   is alive, was still open as of the view and is held open ([max_int]),
   as the live handle holds it; every other range is kept.  On the live
   handle this is the identity. *)
let clip_to_view db bindings =
  List.filter_map
    (fun b ->
      match Db.doc_opt db b.b_doc with
      | None -> None
      | Some d ->
        let n = Docstore.version_count d in
        let alive = Docstore.is_alive d in
        let versions =
          Vrange.of_list
            (List.filter_map
               (fun (lo, hi) ->
                 if lo >= n then None
                 else if hi > n || (hi = n && alive) then Some (lo, max_int)
                 else Some (lo, hi))
               (Vrange.to_list b.b_versions))
        in
        if Vrange.is_empty versions then None
        else Some { b with b_versions = versions })
    bindings

let tpattern_scan_all ?domains ?est db pattern =
  traced ?est "scan.tpattern_scan_all" pattern @@ fun () ->
  clip_to_view db
    (engine ~domains:(domains_of db domains) pattern ~fetch_all:(fetch_all db))

let binding_intervals db b =
  let d = Db.doc db b.b_doc in
  let n = Docstore.version_count d in
  List.filter_map
    (fun (lo, hi) ->
      let lo = Stdlib.max lo (Docstore.first_version d) in
      let hi = Stdlib.min hi n in
      if lo >= hi then None
      else
        let start = Docstore.ts_of_version d lo in
        let stop =
          if hi >= n then
            match Docstore.deleted_at d with
            | Some del -> del
            | None -> Timestamp.plus_infinity
          else Docstore.ts_of_version d hi
        in
        Txq_temporal.Interval.make_opt ~start ~stop)
    (Vrange.to_list b.b_versions)

let to_teids db bindings =
  List.concat_map
    (fun b ->
      match Xidpath.leaf b.b_path with
      | None -> []
      | Some xid ->
        let eid = Eid.make ~doc:b.b_doc ~xid in
        List.map
          (fun iv -> Eid.Temporal.make eid (Txq_temporal.Interval.start iv))
          (binding_intervals db b))
    bindings

let count = List.length
