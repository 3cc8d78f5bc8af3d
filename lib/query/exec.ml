module Xml = Txq_xml.Xml
module Path = Txq_xml.Path
module Print = Txq_xml.Print
module Vnode = Txq_vxml.Vnode
module Eid = Txq_vxml.Eid
module Timestamp = Txq_temporal.Timestamp
module Interval = Txq_temporal.Interval
module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Config = Txq_db.Config
module Planner = Txq_planner.Planner
module Scan = Txq_core.Scan
module Pattern = Txq_core.Pattern
module History = Txq_core.History
module Lifetime = Txq_core.Lifetime
module Nav = Txq_core.Nav
module Diff_op = Txq_core.Diff_op
module Equality = Txq_core.Equality
module Glob = Txq_core.Glob
module Algebra = Txq_algebra.Algebra
module Timeline = Txq_algebra.Timeline
module Relation = Txq_algebra.Relation
module Trace = Txq_obs.Trace
module Span = Txq_obs.Span

type error =
  | Parse_error of string
  | Unknown_variable of string
  | Unsupported of string
  | Internal of string

let error_to_string = function
  | Parse_error e -> "parse error: " ^ e
  | Unknown_variable v -> "unknown variable: " ^ v
  | Unsupported msg -> "unsupported: " ^ msg
  | Internal msg -> "internal error: " ^ msg

exception Fail of error

let unsupported fmt = Printf.ksprintf (fun s -> raise (Fail (Unsupported s))) fmt

(* Once statements arrive from untrusted clients, no input may tear the
   process down: anything the evaluator leaks beyond its own typed [Fail]
   — including [Stack_overflow] from adversarially deep input — becomes a
   typed [Internal] error at every entry point below. *)
let guard f =
  try f () with
  | Fail e -> Error e
  | Stack_overflow -> Error (Internal "stack overflow during evaluation")
  | Out_of_memory -> Error (Internal "out of memory during evaluation")
  | exn -> Error (Internal (Printexc.to_string exn))

(* --- query context ------------------------------------------------------ *)

(* A query evaluates against one NOW and reconstructs each (document,
   version) at most once, whatever the number of bindings into it — the
   per-query memo is the first of the paper's "techniques that can reduce
   the number of delta versions that have to be retrieved" (Section 8). *)
type ctx = {
  db : Db.t;
  now : Timestamp.t;
  memo : (Eid.doc_id * int, Vnode.t) Hashtbl.t;
  plan : Planner.t option;
      (* cost-based plan choices; [None] runs every operator literally
         as written (the differential oracle for the planner) *)
}

let planner_on db = (Db.config db).Config.planner

let make_ctx db =
  {
    db;
    now = Db.now db;
    memo = Hashtbl.create 32;
    plan = (if planner_on db then Some (Planner.create db) else None);
  }

let version_tree ctx doc v =
  match Hashtbl.find_opt ctx.memo (doc, v) with
  | Some tree -> tree
  | None ->
    let tree = Db.reconstruct ctx.db doc v in
    Hashtbl.replace ctx.memo (doc, v) tree;
    tree

let subtree_at ctx (teid : Eid.Temporal.t) =
  let doc = teid.Eid.Temporal.eid.Eid.doc in
  match Db.version_at ctx.db doc teid.Eid.Temporal.ts with
  | None -> None
  | Some v -> Vnode.find (version_tree ctx doc v) teid.Eid.Temporal.eid.Eid.xid

(* --- row model ---------------------------------------------------------- *)

type row_binding = {
  rb_teid : Eid.Temporal.t;
  rb_time : Timestamp.t;  (* timestamp of the bound version (TIME(R)) *)
  rb_tree : Vnode.t Lazy.t;  (* the element's subtree at that time *)
}

type row = (string * row_binding) list

let binding row v =
  match List.assoc_opt v row with
  | Some rb -> rb
  | None -> raise (Fail (Unknown_variable v))

let lazy_subtree ctx teid =
  lazy
    (match subtree_at ctx teid with
     | Some t -> t
     | None -> unsupported "binding vanished: %s" (Eid.Temporal.to_string teid))

(* A binding to the element version [teid] names, timestamped [time]
   (by default [teid]'s own). *)
let bind_teid ctx ?time teid =
  {
    rb_teid = teid;
    rb_time = Option.value time ~default:teid.Eid.Temporal.ts;
    rb_tree = lazy_subtree ctx teid;
  }

(* Element [eid] of document [d] as of [t], if [d] had a version then;
   TIME gives the instant that version began. *)
let bind_at ctx d eid t =
  Option.map
    (fun v -> bind_teid ctx ~time:(Docstore.ts_of_version d v) (Eid.Temporal.make eid t))
    (Docstore.version_at d t)

(* CreTime/DelTime strategy for one bound element, from its document's
   estimated chain depth; [None] (the literal default) with the planner
   off. *)
let lifetime_strategy ctx rb =
  match ctx.plan with
  | None -> None
  | Some p -> Planner.lifetime_strategy p ~doc:rb.rb_teid.Eid.Temporal.eid.Eid.doc

(* --- path selection over vnodes ------------------------------------------ *)

let vname_matches name node =
  match Vnode.tag node with
  | Some t -> String.equal name "*" || String.equal t name
  | None -> false

let rec vdescendants_or_self node =
  node :: List.concat_map vdescendants_or_self (Vnode.children node)

let vselect path root =
  let step cands { Path.axis; name } =
    match axis with
    | Path.Child ->
      List.concat_map
        (fun n -> List.filter (vname_matches name) (Vnode.children n))
        cands
    | Path.Descendant ->
      List.concat_map
        (fun n ->
          List.filter (vname_matches name)
            (List.concat_map vdescendants_or_self (Vnode.children n)))
        cands
  in
  List.fold_left step [root] path

(* --- values --------------------------------------------------------------- *)

type value =
  | V_null
  | V_string of string
  | V_number of float
  | V_time of Timestamp.t
  | V_binding of row_binding
  | V_nodes of Eid.doc_id * Vnode.t list  (* doc of the nodes' owner *)
  | V_xml of Xml.t

let rec eval_expr ctx row (expr : Ast.expr) : value =
  match expr with
  | Ast.E_string s -> V_string s
  | Ast.E_number f -> V_number f
  | Ast.E_time_lit t -> V_time (Ast.resolve_time ~now:ctx.now t)
  | Ast.E_var v -> V_binding (binding row v)
  | Ast.E_path (v, path) ->
    let rb = binding row v in
    V_nodes
      (rb.rb_teid.Eid.Temporal.eid.Eid.doc, vselect path (Lazy.force rb.rb_tree))
  | Ast.E_time v -> V_time (binding row v).rb_time
  | Ast.E_create_time v -> (
    let rb = binding row v in
    match Lifetime.cre_time ctx.db ?strategy:(lifetime_strategy ctx rb) rb.rb_teid with
    | Some ts -> V_time ts
    | None -> V_null)
  | Ast.E_delete_time v -> (
    let rb = binding row v in
    match Lifetime.del_time ctx.db ?strategy:(lifetime_strategy ctx rb) rb.rb_teid with
    | Some ts -> V_time ts
    | None -> V_null)
  | Ast.E_previous v -> nav_binding ctx (binding row v) Nav.previous
  | Ast.E_next v -> nav_binding ctx (binding row v) Nav.next
  | Ast.E_current v ->
    let rb = binding row v in
    (match Nav.current ctx.db rb.rb_teid.Eid.Temporal.eid with
     | Some teid -> V_binding (bind_teid ctx teid)
     | None -> V_null)
  | Ast.E_diff (a, b) -> (
    let tree_of = function
      | V_binding rb -> Some (Lazy.force rb.rb_tree)
      | V_nodes (_, [n]) -> Some n
      | _ -> None
    in
    match (tree_of (eval_expr ctx row a), tree_of (eval_expr ctx row b)) with
    | Some ta, Some tb -> V_xml (Diff_op.diff_trees ta tb)
    | _ -> V_null)
  | Ast.E_apply_path (e, path) -> (
    match eval_expr ctx row e with
    | V_binding rb ->
      V_nodes
        (rb.rb_teid.Eid.Temporal.eid.Eid.doc, vselect path (Lazy.force rb.rb_tree))
    | V_nodes (doc, nodes) -> V_nodes (doc, List.concat_map (vselect path) nodes)
    | V_xml xml ->
      let v = Vnode.of_xml (Txq_vxml.Xid.Gen.create ()) xml in
      V_nodes (-1, vselect path v)
    | V_null -> V_null
    | V_string _ | V_number _ | V_time _ ->
      unsupported "path applied to a non-node value")
  | Ast.E_count _ | Ast.E_sum _ | Ast.E_avg _ ->
    unsupported "aggregate in a non-aggregate position"

and nav_binding ctx rb nav =
  match nav ctx.db rb.rb_teid with
  | Some teid -> V_binding (bind_teid ctx teid)
  | None -> V_null

(* --- comparisons ------------------------------------------------------------ *)

type atom =
  | A_string of string
  | A_number of float
  | A_time of Timestamp.t
  | A_node of Eid.doc_id option * Vnode.t

let atoms = function
  | V_null -> []
  | V_string s -> [A_string s]
  | V_number f -> [A_number f]
  | V_time t -> [A_time t]
  | V_binding rb ->
    [A_node (Some rb.rb_teid.Eid.Temporal.eid.Eid.doc, Lazy.force rb.rb_tree)]
  | V_nodes (doc, nodes) -> List.map (fun n -> A_node (Some doc, n)) nodes
  | V_xml xml -> [A_node (None, Vnode.of_xml (Txq_vxml.Xid.Gen.create ()) xml)]

let atom_text = function
  | A_string s -> s
  | A_number f -> Ast.number_text f
  | A_time t -> Timestamp.to_string t
  | A_node (_, n) -> Vnode.text_content n

let atom_number = function
  | A_number f -> Some f
  | A_string s -> float_of_string_opt (String.trim s)
  | A_node (_, n) -> float_of_string_opt (String.trim (Vnode.text_content n))
  | A_time _ -> None

let compare_atoms op a b =
  (* ordered operators over atom values: times compare as times, then
     numerically when both sides parse, then as text *)
  let by_value op =
    match (a, b) with
    | A_time t1, A_time t2 -> Ast.ordered_holds op (Timestamp.compare t1 t2)
    | _ -> (
      match (atom_number a, atom_number b) with
      | Some x, Some y -> Ast.ordered_holds op (Float.compare x y)
      | _ -> Ast.ordered_holds op (String.compare (atom_text a) (atom_text b)))
  in
  match op with
  | Ast.Identity -> (
    (* node identity: persistent EIDs (Section 7.4) *)
    match (a, b) with
    | A_node (Some d1, n1), A_node (Some d2, n2) ->
      d1 = d2 && Txq_vxml.Xid.equal (Vnode.xid n1) (Vnode.xid n2)
    | _ -> false)
  | Ast.Similar -> (
    match (a, b) with
    | A_node (_, n1), A_node (_, n2) -> Equality.similar n1 n2
    | _ -> String.equal (atom_text a) (atom_text b))
  | Ast.Contains ->
    let hay = atom_text a and needle = atom_text b in
    let hl = String.length hay and nl = String.length needle in
    nl = 0
    || (hl >= nl
        && Seq.exists
             (fun i -> String.equal (String.sub hay i nl) needle)
             (Seq.init (hl - nl + 1) Fun.id))
  | Ast.Ordered ((Ast.O_eq | Ast.O_neq) as op) -> (
    match (a, b) with
    | A_node (_, n1), A_node (_, n2) ->
      let eq = Vnode.deep_equal n1 n2 in
      if op = Ast.O_eq then eq else not eq
    | _ -> by_value op)
  | Ast.Ordered op -> by_value op

let rec eval_cond ctx row = function
  | Ast.C_and (a, b) -> eval_cond ctx row a && eval_cond ctx row b
  | Ast.C_or (a, b) -> eval_cond ctx row a || eval_cond ctx row b
  | Ast.C_not c -> not (eval_cond ctx row c)
  | Ast.C_cmp (le, op, re) ->
    let la = atoms (eval_expr ctx row le) in
    let ra = atoms (eval_expr ctx row re) in
    (* existential semantics over node sets, as in XPath *)
    List.exists (fun a -> List.exists (fun b -> compare_atoms op a b) ra) la

(* --- predicate pushdown ---------------------------------------------------- *)

(* Collect top-level conjuncts [VAR/path = "word"] and turn them into word
   tests inside VAR's pattern; the WHERE clause still verifies them after
   reconstruction (containment first, equality testing second, Section
   6.1). *)
let rec conjuncts = function
  | Ast.C_and (a, b) -> conjuncts a @ conjuncts b
  | c -> [c]

(* The FTI's own token for the literal, when it has exactly one: the
   pushed word then occurs in every element whose text equals the
   literal.  A numeric literal compares by value ("012" = "12"), so it has
   no word to push. *)
let single_word s =
  match (Xml.split_words s, atom_number (A_string s)) with
  | [w], None -> Some w
  | _ -> None

let pushdown_for_var var cond =
  match cond with
  | None -> []
  | Some cond ->
    List.filter_map
      (function
        | Ast.C_cmp (Ast.E_path (v, path), Ast.Ordered Ast.O_eq, Ast.E_string s)
        | Ast.C_cmp (Ast.E_string s, Ast.Ordered Ast.O_eq, Ast.E_path (v, path))
          when String.equal v var && path <> [] ->
          Option.map (fun w -> (path, w)) (single_word s)
        | _ -> None)
      (conjuncts cond)

(* Extend a pattern with a word-test branch along [path]. *)
let rec graft pattern path word =
  match path with
  | [] ->
    { pattern with Pattern.children = Pattern.word word :: pattern.Pattern.children }
  | { Path.axis; name } :: rest ->
    let axis =
      match axis with
      | Path.Child -> Pattern.Child
      | Path.Descendant -> Pattern.Descendant
    in
    let child = graft (Pattern.tag ~axis name []) rest word in
    { pattern with Pattern.children = child :: pattern.Pattern.children }

(* --- source binding ---------------------------------------------------------- *)

let pattern_of_source src extra_words =
  match Pattern.of_path (Path.to_string src.Ast.src_path) with
  | Error e -> unsupported "source path: %s" e
  | Ok p ->
    (* of_path marks the last step as output; graft pushdown words there *)
    let rec at_output p =
      if p.Pattern.output then
        List.fold_left (fun p (path, w) -> graft p path w) p extra_words
      else { p with Pattern.children = List.map at_output p.Pattern.children }
    in
    at_output p

(* Documents a source ranges over: one URL's incarnations, or — for
   collection() — every document whose URL matches the glob. *)
let source_docstores ctx src =
  match src.Ast.src_kind with
  | Ast.Doc -> Db.find_all ctx.db src.Ast.src_url
  | Ast.Collection ->
    List.filter_map
      (fun id ->
        let d = Db.doc ctx.db id in
        if Glob.matches ~pattern:src.Ast.src_url (Docstore.url d) then Some d
        else None)
      (Db.doc_ids ctx.db)

(* Root bindings (empty source path) go through the delta index alone. *)
let bind_roots_every_doc ctx d =
  (* one batched sweep materializes every version: the per-binding
     lazy reconstruction re-walked the chain once per version *)
  let history =
    History.doc_history_trees ctx.db (Docstore.doc_id d)
      ~t1:Timestamp.minus_infinity ~t2:Timestamp.plus_infinity
  in
  List.rev_map
    (fun (dv, tree) ->
      {
        rb_teid = dv.History.dv_teid;
        rb_time = Interval.start dv.History.dv_interval;
        rb_tree = Lazy.from_val tree;
      })
    history

let bind_roots ctx src : row_binding Seq.t =
  let docs = source_docstores ctx src in
  let root d = Eid.make ~doc:(Docstore.doc_id d) ~xid:(Vnode.xid (Docstore.current d)) in
  match src.Ast.src_time with
  | Ast.Current ->
    List.to_seq
      (List.filter_map
         (fun d ->
           if Docstore.is_alive d then
             let ts = Docstore.ts_of_version d (Docstore.version_count d - 1) in
             Some (bind_teid ctx (Eid.Temporal.make (root d) ts))
           else None)
         docs)
  | Ast.At texpr ->
    let t = Ast.resolve_time ~now:ctx.now texpr in
    List.to_seq (List.filter_map (fun d -> bind_at ctx d (root d) t) docs)
  | Ast.Every ->
    Seq.concat_map
      (fun d -> List.to_seq (bind_roots_every_doc ctx d))
      (List.to_seq docs)

(* Expand one TPatternScanAll binding into its full version history. *)
let every_binding_rows ctx b =
  let eid = Scan.eid_of_binding b in
  List.concat_map
    (fun iv ->
      let evs =
        (* the single-sweep variant reads each delta once;
           newest-first, so reverse into chronological order *)
        List.rev
          (History.element_history_sweep ctx.db eid
             ~t1:(Interval.start iv) ~t2:(Interval.stop iv) ())
      in
      List.map
        (fun ev ->
          {
            rb_teid = ev.History.ev_teid;
            rb_time = Interval.start ev.History.ev_interval;
            rb_tree = Lazy.from_val ev.History.ev_tree;
          })
        evs)
    (Scan.binding_intervals ctx.db b)

let planner_mode = function
  | Ast.Current -> Planner.Current
  | Ast.At _ -> Planner.At
  | Ast.Every -> Planner.Every

(* One pattern source's plan, made once and read by both the binder and
   EXPLAIN: the pushed-down equality words, the pattern (join legs
   reordered by the planner), the documents in scope, and the planner's
   scan choices — skip-if-provably-empty, estimated rows and domain
   fan-out.  With the planner off everything stays literal. *)
type source_plan = {
  sp_words : (Path.t * string) list;
  sp_pattern : Pattern.t;
  sp_docs : Eid.doc_id list;
  sp_skip : bool;
  sp_est : int option;
  sp_domains : int option;
}

let plan_source ctx where src =
  let words = pushdown_for_var src.Ast.src_var where in
  let pattern = pattern_of_source src words in
  let docs = List.map Docstore.doc_id (source_docstores ctx src) in
  let literal =
    {
      sp_words = words;
      sp_pattern = pattern;
      sp_docs = docs;
      sp_skip = false;
      sp_est = None;
      sp_domains = None;
    }
  in
  match ctx.plan with
  | None -> literal
  | Some p ->
    let mode = planner_mode src.Ast.src_time in
    let pattern = Planner.order_pattern p mode pattern in
    let est = Planner.est_scan p mode ~docs pattern in
    {
      literal with
      sp_pattern = pattern;
      sp_skip = Planner.scan_skippable p ~est ~docs:(Some docs);
      sp_est = Some est;
      sp_domains = Planner.scan_domains p ~est;
    }

(* The one source binder: plans the source and scans it, eagerly and
   under one span; the rows then stream.  Current and At bindings are
   bounded by one instant.  An [EVERY] source expands its (potentially
   huge) per-binding version histories lazily, one scan binding at a
   time, so a server can emit rows without materializing the whole
   history. *)
let source_rows ctx where src : row_binding Seq.t =
  Trace.with_span "query.bind_source"
    ~attrs:[ ("var", Span.Str src.Ast.src_var) ]
  @@ fun () ->
  if src.Ast.src_path = [] then bind_roots ctx src
  else begin
    let sp = plan_source ctx where src in
    let pattern = sp.sp_pattern and est = sp.sp_est and domains = sp.sp_domains in
    let in_url b = List.mem b.Scan.b_doc sp.sp_docs in
    if sp.sp_skip then Seq.empty
    else
    match src.Ast.src_time with
    | Ast.Current ->
      let bindings =
        List.filter in_url (Scan.pattern_scan ?domains ?est ctx.db pattern)
      in
      List.to_seq (List.map (bind_teid ctx) (Scan.to_teids ctx.db bindings))
    | Ast.At texpr ->
      let t = Ast.resolve_time ~now:ctx.now texpr in
      let bindings =
        List.filter in_url (Scan.tpattern_scan ?domains ?est ctx.db pattern t)
      in
      List.to_seq
        (List.filter_map
           (fun b ->
             bind_at ctx (Db.doc ctx.db b.Scan.b_doc) (Scan.eid_of_binding b) t)
           bindings)
    | Ast.Every ->
      let bindings =
        List.filter in_url (Scan.tpattern_scan_all ?domains ?est ctx.db pattern)
      in
      Seq.concat_map
        (fun b -> List.to_seq (every_binding_rows ctx b))
        (List.to_seq bindings)
  end

(* --- result construction ------------------------------------------------------- *)

let value_to_xml = function
  | V_null -> [Ast.atom_xml `Null]
  | V_string s -> [Ast.atom_xml (`String s)]
  | V_number f -> [Ast.atom_xml (`Number f)]
  | V_time t -> [Ast.atom_xml (`Time t)]
  | V_binding rb -> [Vnode.to_xml (Lazy.force rb.rb_tree)]
  | V_nodes (_, nodes) -> List.map Vnode.to_xml nodes
  | V_xml xml -> [xml]

let row_xml ctx select row =
  Xml.element "result"
    (List.concat_map (fun e -> value_to_xml (eval_expr ctx row e)) select)

(* Aggregate queries produce exactly one result row over the full row set. *)
let aggregate_results ctx query rows =
  let aggregate_value = function
    | Ast.E_count _ -> V_number (float_of_int (List.length rows))
    | Ast.E_sum e ->
      V_number
        (List.fold_left
           (fun acc row ->
             List.fold_left
               (fun acc a ->
                 match atom_number a with
                 | Some f -> acc +. f
                 | None -> acc)
               acc
               (atoms (eval_expr ctx row e)))
           0.0 rows)
    | Ast.E_avg e ->
      let values =
        List.concat_map
          (fun row -> List.filter_map atom_number (atoms (eval_expr ctx row e)))
          rows
      in
      if values = [] then V_null
      else
        V_number
          (List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values))
    | _ -> unsupported "mixing aggregates and row expressions in SELECT"
  in
  [Xml.element "result"
     (List.concat_map
        (fun e -> value_to_xml (aggregate_value e))
        query.Ast.select)]

(* --- the evaluator ------------------------------------------------------ *)

(* Lazy cartesian product over per-source binding sequences: the first
   source streams straight off its scan; every later source is pulled at
   most once and memoized, since the product revisits it per outer row. *)
let rec row_seq : _ -> row Seq.t = function
  | [] -> Seq.return []
  | (var, s) :: rest ->
    let rest_seq = Seq.memoize (row_seq rest) in
    Seq.concat_map (fun rb -> Seq.map (fun row -> (var, rb) :: row) rest_seq) s

(* The variables SELECT and WHERE name, in order of appearance. *)
let rec expr_vars acc = function
  | Ast.E_var v | Ast.E_path (v, _) | Ast.E_time v | Ast.E_create_time v
  | Ast.E_delete_time v | Ast.E_previous v | Ast.E_next v | Ast.E_current v ->
    v :: acc
  | Ast.E_string _ | Ast.E_number _ | Ast.E_time_lit _ -> acc
  | Ast.E_diff (a, b) -> expr_vars (expr_vars acc a) b
  | Ast.E_count e | Ast.E_sum e | Ast.E_avg e | Ast.E_apply_path (e, _) ->
    expr_vars acc e

let rec cond_vars acc = function
  | Ast.C_cmp (a, _, b) -> expr_vars (expr_vars acc a) b
  | Ast.C_and (a, b) | Ast.C_or (a, b) -> cond_vars (cond_vars acc a) b
  | Ast.C_not c -> cond_vars acc c

(* Checked once against FROM, so a statement naming an unknown variable
   fails whether or not any row binds. *)
let check_variables query =
  let used = List.fold_left expr_vars [] query.Ast.select in
  let used = Option.fold ~none:used ~some:(cond_vars used) query.Ast.where in
  let bound v =
    List.exists (fun src -> String.equal src.Ast.src_var v) query.Ast.from
  in
  match List.find_opt (fun v -> not (bound v)) (List.rev used) with
  | Some v -> raise (Fail (Unknown_variable v))
  | None -> ()

(* Every source binds (in FROM order), the product streams through WHERE,
   and each result element goes to [on_row] in result order; returns the
   number emitted.  The ["rows"] count is the rows WHERE kept. *)
let eval_query db query ~on_row =
  check_variables query;
  let ctx = make_ctx db in
  let rows =
    row_seq
      (List.map
         (fun src -> (src.Ast.src_var, source_rows ctx query.Ast.where src))
         query.Ast.from)
  in
  let kept = ref 0 in
  let rows =
    Seq.filter
      (fun row ->
        let keep =
          match query.Ast.where with
          | None -> true
          | Some cond -> eval_cond ctx row cond
        in
        if keep then incr kept;
        keep)
      rows
  in
  let results =
    if Ast.has_aggregates query then
      (* a single output row over the whole row set: nothing to stream *)
      List.to_seq (aggregate_results ctx query (List.of_seq rows))
    else Seq.map (row_xml ctx query.Ast.select) rows
  in
  let results =
    if query.Ast.distinct then begin
      let seen = Hashtbl.create 16 in
      Seq.filter
        (fun r ->
          let key = Print.to_string r in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            true
          end)
        results
    end
    else results
  in
  let n = Seq.fold_left (fun n r -> on_row r; n + 1) 0 results in
  if Trace.enabled () then Trace.add_count "rows" !kept;
  n

let eval_algebra db node =
  match Algebra.validate node with
  | Error e -> raise (Fail (Unsupported e))
  | Ok () ->
    let tl =
      Trace.with_span "algebra.timeline" (fun () ->
          let tl = Timeline.of_db db in
          if Trace.enabled () then Trace.add_count "instants" (Timeline.length tl);
          tl)
    in
    let rel =
      if planner_on db then Planner.eval_algebra (Planner.create db) db tl node
      else Algebra.eval db tl node
    in
    (tl, rel)

(* The one executor every entry point below goes through. *)
let eval db stmt ~on_row =
  Trace.with_span "query.run" @@ fun () ->
  match stmt with
  | Ast.S_query q -> eval_query db q ~on_row
  | Ast.S_algebra a ->
    let tl, rel = eval_algebra db a in
    List.iter (fun r -> on_row (Relation.row_to_xml tl r)) rel;
    List.length rel

(* The result document: the stream's rows under one [<results>]. *)
let collect db stmt =
  guard @@ fun () ->
  let rows = ref [] in
  ignore (eval db stmt ~on_row:(fun r -> rows := r :: !rows));
  Ok (Xml.element "results" (List.rev !rows))

(* With the planner on, statements pass through the (output-preserving)
   rewrite rules before costing, so the planner sees folded time literals
   and pruned conditions instead of their as-written forms.  [run] and
   [run_algebra] skip this step, keeping the as-written statement as the
   rewrite's differential baseline. *)
let plan_statement db stmt =
  if planner_on db then Rewrite.statement ~now:(Db.now db) stmt else stmt

let run db query = collect db (Ast.S_query query)
let run_algebra db node = collect db (Ast.S_algebra node)
let run_statement db stmt = collect db (plan_statement db stmt)

let run_string db input =
  match Parser.parse_statement input with
  | Error e -> Error (Parse_error e)
  | Ok s -> run_statement db s

let stream_statement db stmt ~on_row =
  guard @@ fun () -> Ok (eval db (plan_statement db stmt) ~on_row)

(* --- explain ------------------------------------------------------------- *)

let explain db query =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ctx = make_ctx db in
  let pushed = ref false in
  addf "query: %s\n" (Ast.to_string query);
  List.iteri
    (fun i src ->
      let scope =
        match src.Ast.src_kind with
        | Ast.Doc -> Printf.sprintf "doc %S" src.Ast.src_url
        | Ast.Collection -> Printf.sprintf "collection %S" src.Ast.src_url
      in
      addf "source %d: %s binds %s\n" (i + 1) scope src.Ast.src_var;
      if src.Ast.src_path = [] then
        addf "  operator: delta-index root binding (no FTI)\n"
      else begin
        let operator =
          match src.Ast.src_time with
          | Ast.Current -> "PatternScan (current versions, FTI_lookup)"
          | Ast.At _ -> "TPatternScan (snapshot, FTI_lookup_T) + Reconstruct on demand"
          | Ast.Every ->
            "TPatternScanAll (temporal multiway join, FTI_lookup_H) + \
             single-sweep ElementHistory"
        in
        addf "  operator: %s\n" operator;
        match plan_source ctx query.Ast.where src with
        | exception Fail e -> addf "  pattern:  <invalid: %s>\n" (error_to_string e)
        | sp ->
          addf "  pattern:  %s\n" (Pattern.to_string sp.sp_pattern);
          (match (ctx.plan, sp.sp_est) with
           | Some p, Some est ->
             addf "  estimate: %s\n"
               (Planner.describe_scan p (planner_mode src.Ast.src_time) ~est
                  sp.sp_pattern)
           | _ -> ());
          if sp.sp_words <> [] then begin
            pushed := true;
            addf
              "  pushdown: %d equality predicate(s) as word tests, re-verified after scan\n"
              (List.length sp.sp_words)
          end
      end)
    query.Ast.from;
  (match query.Ast.where with
   | Some cond ->
     addf "where: %d conjunct(s), evaluated per row%s\n"
       (List.length (conjuncts cond))
       (if !pushed then " (some already pushed into patterns)" else "")
   | None -> ());
  (if Ast.has_aggregates query then
     addf "select: aggregate over bindings%s\n"
       (if
          List.for_all
            (function Ast.E_count _ -> true | _ -> false)
            query.Ast.select
        then " (COUNT only: no reconstruction, the Q2 fast path)"
        else " (values force reconstruction, memoized per (doc, version))")
   else
     addf "select: %d expression(s) per row; node values reconstruct lazily\n"
       (List.length query.Ast.select));
  Buffer.contents buf

let explain_algebra db node =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "algebra: %s\n" (Algebra.to_string node);
  let valid =
    match Algebra.validate node with
    | Error e ->
      addf "invalid: %s\n" e;
      false
    | Ok () -> true
  in
  let plan = if planner_on db && valid then Some (Planner.create db) else None in
  let est n =
    match plan with
    | None -> ""
    | Some p -> Printf.sprintf "  est=%d row(s)" (Planner.est_algebra p n)
  in
  let rec tree indent n =
    let pad = String.make indent ' ' in
    match (n : Algebra.t) with
    | Algebra.Scan _ ->
      addf "%s%s  arity=%d%s  %s\n" pad (Algebra.span_name n) (Algebra.arity n)
        (est n) (Algebra.to_string n)
    | Algebra.Set (_, a, b) | Algebra.Joinop (_, _, a, b) ->
      addf "%s%s  arity=%d%s\n" pad (Algebra.span_name n) (Algebra.arity n)
        (est n);
      tree (indent + 2) a;
      tree (indent + 2) b
    | Algebra.Group (_, a) ->
      addf "%s%s  arity=%d%s  (interval-split COUNT)\n" pad
        (Algebra.span_name n) (Algebra.arity n) (est n);
      tree (indent + 2) a
  in
  tree 0 node;
  addf
    "leaves: TPatternScanAll validity sets mapped onto the global timeline \
     (%d instants, %d documents)\n"
    (Timeline.length (Timeline.of_db db))
    (List.length (Db.doc_ids db));
  Buffer.contents buf

let explain_planned db = function
  | Ast.S_query q -> explain db q
  | Ast.S_algebra a -> explain_algebra db a

let explain_statement db stmt = explain_planned db (plan_statement db stmt)

let explain_string db input =
  match Parser.parse_statement input with
  | Error e -> Error (Parse_error e)
  | Ok s -> guard (fun () -> Ok (explain_statement db s))

(* --- explain analyze ------------------------------------------------------ *)

(* Per-operator aggregation over the span forest a run produced: number of
   calls, cumulative wall time (a parent's time includes its children's,
   as in SQL EXPLAIN ANALYZE), and the sum of every integer attribute
   (deltas applied, postings scanned, vcache hits, …). *)
type op_stats = {
  mutable os_calls : int;
  mutable os_total_us : float;
  mutable os_counts : (string * int) list;
}

let aggregate_spans roots =
  let order = ref [] in
  let tbl : (string, op_stats) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun root ->
      Span.fold
        (fun () sp ->
          let name = sp.Span.sp_name in
          let st =
            match Hashtbl.find_opt tbl name with
            | Some st -> st
            | None ->
              let st = { os_calls = 0; os_total_us = 0.0; os_counts = [] } in
              Hashtbl.add tbl name st;
              order := name :: !order;
              st
          in
          st.os_calls <- st.os_calls + 1;
          st.os_total_us <- st.os_total_us +. Span.dur_us sp;
          List.iter
            (fun (k, v) ->
              match v with
              | Span.Int n ->
                st.os_counts <-
                  (if List.mem_assoc k st.os_counts then
                     List.map
                       (fun (k', m') ->
                         if String.equal k' k then (k', m' + n) else (k', m'))
                       st.os_counts
                   else st.os_counts @ [ (k, n) ])
              | _ -> ())
            sp.Span.sp_attrs)
        () root)
    roots;
  List.map (fun name -> (name, Hashtbl.find tbl name)) (List.rev !order)

let render_analysis plan result roots =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf plan;
  addf "-- analyze --\n";
  (match result with
  | Ok xml -> addf "result: %d row(s)\n" (List.length (Xml.children xml))
  | Error e -> addf "result: error: %s\n" (error_to_string e));
  let ops = aggregate_spans roots in
  (* widest operator name bounds the column *)
  let name_w =
    List.fold_left (fun w (n, _) -> Stdlib.max w (String.length n)) 8 ops
  in
  (* planner estimate vs what the operator actually produced: scans count
     "bindings", everything downstream counts "rows" *)
  let est_of st = List.assoc_opt "est_rows" st.os_counts in
  let actual_of st =
    match List.assoc_opt "bindings" st.os_counts with
    | Some n -> Some n
    | None -> List.assoc_opt "rows" st.os_counts
  in
  let est_err e a =
    (* smoothed symmetric ratio: 1.0 is exact, robust at zero rows *)
    let e = float_of_int (e + 1) and a = float_of_int (a + 1) in
    Float.max (e /. a) (a /. e)
  in
  addf "%-*s %6s %12s %8s %8s %8s  %s\n" name_w "operator" "calls" "total"
    "est" "actual" "est_err" "counters";
  List.iter
    (fun (name, st) ->
      let est_s, act_s, err_s =
        match (est_of st, actual_of st) with
        | Some e, Some a ->
          ( string_of_int e,
            string_of_int a,
            Printf.sprintf "%.1fx" (est_err e a) )
        | Some e, None -> (string_of_int e, "-", "-")
        | None, Some a -> ("-", string_of_int a, "-")
        | None, None -> ("-", "-", "-")
      in
      addf "%-*s %6d %10.1fus %8s %8s %8s  %s\n" name_w name st.os_calls
        st.os_total_us est_s act_s err_s
        (String.concat " "
           (List.filter_map
              (fun (k, n) ->
                if String.equal k "est_rows" then None
                else Some (Printf.sprintf "%s=%d" k n))
              st.os_counts)))
    (List.sort
       (fun (_, a) (_, b) -> Float.compare b.os_total_us a.os_total_us)
       ops);
  List.iter (fun root -> addf "span tree:\n%s\n" (Span.to_string root)) roots;
  Buffer.contents buf

(* The plan, then the same statement run under a trace collector. *)
let analyze db stmt =
  let plan = explain_planned db stmt in
  let result, roots = Trace.collect (fun () -> collect db stmt) in
  (result, render_analysis plan result roots)

let explain_analyze db query = analyze db (Ast.S_query query)

(* [collect] is total, but plan rendering touches live state (timeline
   size, pattern compilation); keep the whole thing inside a guard so a
   daemon's EXPLAIN path can't raise either. *)
let explain_analyze_statement db stmt =
  match guard (fun () -> Ok (analyze db (plan_statement db stmt))) with
  | Ok v -> v
  | Error e -> (Error e, "explain analyze failed: " ^ error_to_string e)

let explain_analyze_string db input =
  match Parser.parse_statement input with
  | Error e -> Error (Parse_error e)
  | Ok s -> Ok (snd (explain_analyze_statement db s))

let run_string_exn db input =
  match run_string db input with
  | Ok xml -> xml
  | Error e -> invalid_arg (error_to_string e)
