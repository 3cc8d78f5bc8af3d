module Db = Txq_db.Db
module Config = Txq_db.Config
module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid
module Pattern = Txq_core.Pattern
module Lifetime = Txq_core.Lifetime
module Algebra = Txq_algebra.Algebra
module Relation = Txq_algebra.Relation
module Timeline = Txq_algebra.Timeline
module Trace = Txq_obs.Trace
module Span = Txq_obs.Span

type t = {
  stats : Stats.t;
  config : Config.t;
}

type mode = Current | At | Every

let create db = { stats = Stats.create db; config = Db.config db }
let stats t = t.stats

let mode_to_string = function
  | Current -> "current"
  | At -> "snapshot"
  | Every -> "history"

(* Delta-chain walks shorter than this beat a paged B+-tree descent:
   CreTime/DelTime read at most [cutoff] delta blobs, most of them
   already in the buffer pool for a chain this short (E6 measures the
   trade; the index only pays off once the walk is deeper than a
   handful of deltas). *)
let traverse_cutoff = 4

let test_of (p : Pattern.t) =
  match p.Pattern.test with
  | Pattern.Tag w -> (w, Vnode.Tag)
  | Pattern.Word w -> (w, Vnode.Word)

(* Cardinality of one word test under the operator's temporal mode. *)
let test_count t mode word kind =
  match mode with
  | Current -> fst (Stats.word_current t.stats word kind)
  | Every -> fst (Stats.word_history t.stats word kind)
  | At ->
    let total, _route = Stats.word_history t.stats word kind in
    if total = 0 then 0
    else
      (* Postings valid at one instant: churning elements splinter their
         history into ~chain-depth postings (total / avg_chain of them
         valid at a time); stable elements coalesce into one posting
         spanning the whole history, so the still-open count is a floor
         the division misses.  Take the larger of the two regimes. *)
      let c = Stats.corpus t.stats in
      let churn =
        Stdlib.max 1 (int_of_float (float_of_int total /. Stats.avg_chain c))
      in
      Stdlib.max churn (Stats.word_open t.stats word kind)

let rec subtree_min t mode (p : Pattern.t) =
  let word, kind = test_of p in
  List.fold_left
    (fun m c -> Stdlib.min m (subtree_min t mode c))
    (test_count t mode word kind)
    p.Pattern.children

(* --- plan choices ------------------------------------------------------- *)

(* Join-leg ordering: within every pattern node, constrain by the most
   selective child subtree first.  Reordering children never changes the
   result — each child only intersects validities or multiplies output
   candidates, both order-insensitive and deduplicated afterwards — but
   it shrinks the row set before the expensive (high-cardinality)
   constrain passes run.  The sort is stable on the estimate, so equal
   (or unknown) estimates preserve the written order. *)
let rec order_pattern t mode (p : Pattern.t) =
  let children = List.map (order_pattern t mode) p.Pattern.children in
  let keyed =
    List.mapi (fun i c -> (subtree_min t mode c, i, c)) children
  in
  let sorted =
    List.sort
      (fun (ea, ia, _) (eb, ib, _) ->
        if ea <> eb then Stdlib.compare ea eb else Stdlib.compare ia ib)
      keyed
  in
  { p with Pattern.children = List.map (fun (_, _, c) -> c) sorted }

(* Doc lists longer than this aren't worth fencing per document — the
   corpus-wide counter is the honest estimate at that point. *)
let max_fence_docs = 32

(* Bindings are matches of the output node, so the row estimate is the
   min over the output node's subtree: its own cardinality, capped by any
   word test hanging under it.  A test above or beside the output bounds
   matching {e documents}, not bindings — one ancestor can hold many
   outputs — so outside tests contribute only their emptiness (any empty
   test anywhere empties the whole join). *)
let rec output_node (p : Pattern.t) =
  if p.Pattern.output then Some p
  else List.find_map output_node p.Pattern.children

let rec any_empty t mode (p : Pattern.t) =
  let word, kind = test_of p in
  test_count t mode word kind = 0
  || List.exists (any_empty t mode) p.Pattern.children

let est_scan t mode ?docs (pattern : Pattern.t) =
  let base =
    if any_empty t mode pattern then 0
    else
      subtree_min t mode
        (match output_node pattern with Some o -> o | None -> pattern)
  in
  match docs with
  | Some ds
    when base > 0 && ds <> []
         && List.compare_length_with ds max_fence_docs <= 0
         && Stats.has_a1 t.stats ->
    let out_word, out_kind =
      test_of (match output_node pattern with Some o -> o | None -> pattern)
    in
    let fenced =
      List.fold_left
        (fun n doc -> n + Stats.doc_word_history t.stats out_word out_kind doc)
        0 ds
    in
    Stdlib.min base fenced
  | _ -> base

(* A provably-empty scan may be skipped outright — but only when the A1
   index exists, because without it the scan itself would raise and the
   literal path's error must be preserved byte for byte. *)
let scan_skippable t ~est ~docs =
  Stats.has_a1 t.stats && (est = 0 || docs = Some [])

(* Domain fan-out from estimated rows: below the per-domain amortization
   floor a parallel scan only pays spawn cost, so plan it inline.  The
   floor is [Scan.min_docs] — the one that gates fan-out by candidate
   documents inside the pool — here applied earlier, to the estimate. *)
let scan_domains t ~est =
  if t.config.Config.domains <= 1 then None
  else if est <= Txq_core.Scan.min_docs then Some 1
  else None

(* CreTime/DelTime strategy from estimated chain depth: a short chain is
   cheaper to walk than to look up.  Both strategies answer at the
   handle's own view, so the rule is the same on every handle. *)
let lifetime_strategy t ~doc =
  match Db.cretime (Stats.db t.stats) with
  | None -> Some `Traverse
  | Some _ ->
    if Stats.chain_len t.stats doc <= traverse_cutoff then Some `Traverse
    else Some `Index

(* --- algebra ------------------------------------------------------------ *)

let est_leaf t (l : Algebra.leaf) =
  match Algebra.leaf_pattern l with
  | Error _ -> 0
  | Ok pattern ->
    let docs = Algebra.leaf_doc_ids (Stats.db t.stats) l in
    est_scan t Every ~docs pattern

let rec est_algebra t (node : Algebra.t) =
  let c = Stats.corpus t.stats in
  let docs = Stdlib.max 1 c.Stats.docs_total in
  let sat a b =
    (* saturating product: estimates never overflow into negatives *)
    if a = 0 || b = 0 then 0
    else if a > max_int / 4 / b then max_int / 4
    else a * b
  in
  match node with
  | Algebra.Scan l -> est_leaf t l
  | Algebra.Set (Algebra.Union, a, b) -> est_algebra t a + est_algebra t b
  | Algebra.Set (Algebra.Intersect, a, b) ->
    Stdlib.min (est_algebra t a) (est_algebra t b)
  | Algebra.Set (Algebra.Except, a, _) -> est_algebra t a
  | Algebra.Joinop (kind, on, a, b) ->
    let ea = est_algebra t a and eb = est_algebra t b in
    let inner =
      match on with
      | Algebra.On_always -> sat ea eb
      | Algebra.On_doc | Algebra.On_ancestor -> Stdlib.max 1 (sat ea eb / docs)
    in
    (match kind with
     | Algebra.Join -> inner
     | Algebra.Left_join -> inner + ea
     | Algebra.Semi_join | Algebra.Anti_join -> ea)
  | Algebra.Group (Algebra.By_all, a) -> Stdlib.min (est_algebra t a) 8
  | Algebra.Group (Algebra.By_doc, a) ->
    Stdlib.min (est_algebra t a) (docs * 4)

(* Planner-aware algebra evaluation: same combiners, same spans and
   ["rows"] counters as [Algebra.eval] (plus ["est_rows"]), but binary
   nodes evaluate their cheaper-estimated input first and skip the other
   side entirely when the first is an annihilator.  Skipping is
   byte-identical: every combiner normalizes, empty relations are [[]],
   and [[]] annihilates Join/Semi-join/Intersect from either side and
   everything but Union from the left. *)
let eval_algebra t ?domains db tl node =
  let rec eval node =
    let traced f =
      if not (Trace.enabled ()) then f ()
      else
        Trace.with_span (Algebra.span_name node)
          ~attrs:[ ("node", Span.Str (Algebra.to_string node)) ]
          (fun () ->
            let rel = f () in
            Trace.add_count "est_rows" (est_algebra t node);
            Trace.add_count "rows" (Relation.cardinality rel);
            rel)
    in
    traced @@ fun () ->
    match node with
    | Algebra.Scan l ->
      if
        Stats.has_a1 t.stats
        && (est_leaf t l = 0 || Algebra.leaf_doc_ids db l = [])
      then []
      else Algebra.eval_leaf ?domains db tl l
    | Algebra.Set (op, a, b) -> (
      let a_first = est_algebra t a <= est_algebra t b in
      match (op, a_first) with
      | Algebra.Union, _ ->
        (* no annihilator: both sides always evaluate *)
        Algebra.eval_set op (eval a) (eval b)
      | (Algebra.Intersect | Algebra.Except), true ->
        let l = eval a in
        if l = [] then [] else Algebra.eval_set op l (eval b)
      | Algebra.Intersect, false ->
        let r = eval b in
        if r = [] then [] else Algebra.eval_set op (eval a) r
      | Algebra.Except, false -> Algebra.eval_set op (eval a) (eval b))
    | Algebra.Joinop (kind, on, a, b) -> (
      let right_arity = Algebra.arity b in
      let a_first = est_algebra t a <= est_algebra t b in
      if a_first then begin
        let l = eval a in
        if l = [] then []
        else Algebra.eval_join kind on l (eval b) ~right_arity
      end
      else begin
        let r = eval b in
        match kind with
        | (Algebra.Join | Algebra.Semi_join) when r = [] -> []
        | _ -> Algebra.eval_join kind on (eval a) r ~right_arity
      end)
    | Algebra.Group (key, a) -> Algebra.eval_group key (eval a)
  in
  eval node

(* --- plan description (EXPLAIN) ----------------------------------------- *)

let describe_scan t mode ~est pattern =
  let tests =
    let rec collect p acc =
      let k = test_of p in
      let acc = if List.mem k acc then acc else k :: acc in
      List.fold_left (fun acc c -> collect c acc) acc p.Pattern.children
    in
    List.rev (collect pattern [])
  in
  let leg (word, kind) =
    let n, route =
      match mode with
      | Current -> Stats.word_current t.stats word kind
      | At | Every -> Stats.word_history t.stats word kind
    in
    Printf.sprintf "%s%s=%d[%s]"
      (match kind with Vnode.Tag -> "" | Vnode.Word -> "~")
      word n
      (Stats.route_to_string route)
  in
  let domains =
    match scan_domains t ~est with
    | Some n -> string_of_int n
    | None -> string_of_int t.config.Config.domains
  in
  Printf.sprintf "~%d row(s) over %s counts (%s); domains=%s" est
    (mode_to_string mode)
    (String.concat " " (List.map leg tests))
    domains
