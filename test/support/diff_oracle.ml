(* The tree diff this repository shipped before its matching state moved
   onto the indexed trees: hash tables keyed by node index and XID, and a
   script generated against a whole-tree [Xidmap] copy that moves every
   matched sibling whose left neighbour differs.  Kept verbatim as the
   reference the differential tests compare [Txq_vxml.Diff] against, apart
   from this header and the module aliases below. *)

module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
module Xidmap = Txq_vxml.Xidmap
module Delta = Txq_vxml.Delta

let min_hash_match_size = 3

(* Indexed copy of the new (plain XML) tree: every node gets an integer
   index, a shallow shape, a structural hash and a size, so matching state
   can live in arrays keyed by index. *)
type shape =
  | Selem of string * (string * string) list
  | Stext of string

type nnode = {
  idx : int;
  shape : shape;
  kids : nnode list;
  nhash : int;
  nsize : int;
}

let index_new_tree xml =
  let counter = ref 0 in
  let combine h x = (h * 1_000_003) lxor x in
  let hash_string h s = combine h (Hashtbl.hash s) in
  let rec build node =
    let idx = !counter in
    incr counter;
    match node with
    | Txq_xml.Xml.Text content ->
      { idx; shape = Stext content; kids = []; nhash = hash_string 7 content;
        nsize = 1 }
    | Txq_xml.Xml.Element e ->
      let attrs =
        Vnode.sort_attrs
          (List.map
             (fun { Txq_xml.Xml.attr_name; attr_value } -> (attr_name, attr_value))
             e.attrs)
      in
      let kids = List.map build e.children in
      let h = hash_string 11 e.tag in
      let h =
        List.fold_left (fun h (n, v) -> hash_string (hash_string h n) v) h attrs
      in
      let nhash = List.fold_left (fun h k -> combine h k.nhash) h kids in
      let nsize = List.fold_left (fun acc k -> acc + k.nsize) 1 kids in
      { idx; shape = Selem (e.tag, attrs); kids; nhash; nsize }
  in
  let root = build xml in
  (root, !counter)

(* Structural equality between an old subtree and a new subtree, guarding
   hash-based matches against collisions. *)
let rec equal_shape (v : Vnode.t) (n : nnode) =
  match (v, n.shape) with
  | Vnode.Text { content; _ }, Stext s -> String.equal content s
  | Vnode.Elem e, Selem (tag, attrs) ->
    String.equal e.tag tag
    && Vnode.deep_equal
         (Vnode.Elem { e with children = [] })
         (Vnode.Elem { xid = e.xid; tag; attrs; children = [] })
    && List.compare_lengths e.children n.kids = 0
    && List.for_all2 equal_shape e.children n.kids
  | Vnode.Text _, Selem _ | Vnode.Elem _, Stext _ -> false

let shallow_key = function
  | Stext _ -> "#text"
  | Selem (tag, _) -> tag

let vnode_key = function
  | Vnode.Text _ -> "#text"
  | Vnode.Elem e -> e.tag

(* Longest common subsequence over two arrays under a caller-supplied
   equality; returns the matched index pairs, leftmost-first. *)
let lcs ~equal a b =
  let la = Array.length a and lb = Array.length b in
  let table = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = la - 1 downto 0 do
    for j = lb - 1 downto 0 do
      table.(i).(j) <-
        (if equal a.(i) b.(j) then 1 + table.(i + 1).(j + 1)
         else Stdlib.max table.(i + 1).(j) table.(i).(j + 1))
    done
  done;
  let rec walk i j acc =
    if i >= la || j >= lb then List.rev acc
    else if equal a.(i) b.(j) && table.(i).(j) = 1 + table.(i + 1).(j + 1) then
      walk (i + 1) (j + 1) ((i, j) :: acc)
    else if table.(i + 1).(j) >= table.(i).(j + 1) then walk (i + 1) j acc
    else walk i (j + 1) acc
  in
  walk 0 0 []

type matching = {
  old_of_new : (int, Xid.t) Hashtbl.t;
  new_of_old : int Xid.Table.t;
  (* New indices whose whole subtree was matched exactly in phase A; their
     descendants need no alignment. *)
  exact : (int, unit) Hashtbl.t;
}

let match_subtrees m (v : Vnode.t) (n : nnode) =
  let rec go v n =
    Hashtbl.replace m.old_of_new n.idx (Vnode.xid v);
    Xid.Table.replace m.new_of_old (Vnode.xid v) n.idx;
    List.iter2 go (Vnode.children v) n.kids
  in
  go v n

(* Phase A: exact-subtree matching by structural hash, new-tree pre-order,
   largest-first by construction (a parent is visited before its children
   and a match skips the whole subtree). *)
let phase_exact m ~old_root ~new_root =
  let by_hash = Hashtbl.create 256 in
  let rec index_old v =
    if (not (Xid.equal (Vnode.xid v) (Vnode.xid old_root)))
       && Vnode.size v >= min_hash_match_size
    then begin
      let h = Vnode.structural_hash v in
      let bucket = try Hashtbl.find by_hash h with Not_found -> [] in
      Hashtbl.replace by_hash h (bucket @ [v])
    end;
    List.iter index_old (Vnode.children v)
  in
  index_old old_root;
  let old_free v =
    List.for_all
      (fun x -> not (Xid.Table.mem m.new_of_old x))
      (Vnode.xids v)
  in
  let rec visit n =
    if n.idx <> new_root.idx && n.nsize >= min_hash_match_size
       && not (Hashtbl.mem m.old_of_new n.idx)
    then begin
      let candidates = try Hashtbl.find by_hash n.nhash with Not_found -> [] in
      match
        List.find_opt (fun v -> old_free v && equal_shape v n) candidates
      with
      | Some v ->
        match_subtrees m v n;
        Hashtbl.replace m.exact n.idx ()
      | None -> List.iter visit n.kids
    end
    else if not (Hashtbl.mem m.old_of_new n.idx) then List.iter visit n.kids
  in
  List.iter visit new_root.kids

(* Phase B: top-down child alignment of matched pairs.  LCS pins the common
   order; a greedy same-key pass afterwards turns reorders into moves rather
   than delete+insert pairs. *)
let phase_align m ~old_root ~new_root =
  (* old nodes by xid, for children lookup *)
  let old_by_xid = Xid.Table.create 64 in
  let rec index v =
    Xid.Table.replace old_by_xid (Vnode.xid v) v;
    List.iter index (Vnode.children v)
  in
  index old_root;
  let queue = Queue.create () in
  let enqueue oxid nidx = Queue.add (oxid, nidx) queue in
  (* roots are force-matched *)
  Hashtbl.replace m.old_of_new new_root.idx (Vnode.xid old_root);
  Xid.Table.replace m.new_of_old (Vnode.xid old_root) new_root.idx;
  enqueue (Vnode.xid old_root) new_root.idx;
  let new_by_idx = Hashtbl.create 64 in
  let rec index_new n =
    Hashtbl.replace new_by_idx n.idx n;
    List.iter index_new n.kids
  in
  index_new new_root;
  while not (Queue.is_empty queue) do
    let oxid, nidx = Queue.pop queue in
    let n = Hashtbl.find new_by_idx nidx in
    if not (Hashtbl.mem m.exact nidx) then begin
      let o = Xid.Table.find old_by_xid oxid in
      let old_kids = Array.of_list (Vnode.children o) in
      let new_kids = Array.of_list n.kids in
      (* Pair equality for the LCS: two already-matched nodes are equal iff
         matched to each other; two unmatched nodes are equal iff their
         shallow keys agree. *)
      let equal ov nk =
        let oid = Vnode.xid ov in
        match (Xid.Table.find_opt m.new_of_old oid,
               Hashtbl.find_opt m.old_of_new nk.idx) with
        | Some i, _ -> i = nk.idx
        | None, Some _ -> false
        | None, None -> String.equal (vnode_key ov) (shallow_key nk.shape)
      in
      let pairs = lcs ~equal old_kids new_kids in
      List.iter
        (fun (i, j) ->
          let ov = old_kids.(i) and nk = new_kids.(j) in
          let oid = Vnode.xid ov in
          if not (Xid.Table.mem m.new_of_old oid) then begin
            Hashtbl.replace m.old_of_new nk.idx oid;
            Xid.Table.replace m.new_of_old oid nk.idx;
            enqueue oid nk.idx
          end
          else if Hashtbl.mem m.exact nk.idx then ()
          else enqueue oid nk.idx)
        pairs;
      (* Greedy same-key matching of the leftovers (reorders). *)
      let bind ov nk =
        let oid = Vnode.xid ov in
        Hashtbl.replace m.old_of_new nk.idx oid;
        Xid.Table.replace m.new_of_old oid nk.idx;
        enqueue oid nk.idx
      in
      Array.iter
        (fun ov ->
          let oid = Vnode.xid ov in
          if not (Xid.Table.mem m.new_of_old oid) then
            let key = vnode_key ov in
            let candidate =
              Array.to_list new_kids
              |> List.find_opt (fun nk ->
                     (not (Hashtbl.mem m.old_of_new nk.idx))
                     && String.equal key (shallow_key nk.shape))
            in
            match candidate with
            | Some nk -> bind ov nk
            | None -> ())
        old_kids;
      (* Positional fallback: pair leftover old elements with leftover new
         elements in order, so a renamed element keeps its identity (one
         Rename op) instead of becoming a delete+insert pair. *)
      let leftover_old =
        Array.to_list old_kids
        |> List.filter (fun ov ->
               (match ov with Vnode.Elem _ -> true | Vnode.Text _ -> false)
               && not (Xid.Table.mem m.new_of_old (Vnode.xid ov)))
      in
      let leftover_new =
        Array.to_list new_kids
        |> List.filter (fun nk ->
               (match nk.shape with Selem _ -> true | Stext _ -> false)
               && not (Hashtbl.mem m.old_of_new nk.idx))
      in
      let rec pair_up olds news =
        match (olds, news) with
        | ov :: olds', nk :: news' ->
          bind ov nk;
          pair_up olds' news'
        | _, [] | [], _ -> ()
      in
      pair_up leftover_old leftover_new
    end
  done

(* Phase C: script generation against a working copy of the old version. *)
let phase_script m ~gen ~old_tree ~new_root =
  let work = Xidmap.of_vnode old_tree in
  let ops = ref [] in
  let emit op =
    Delta.apply_forward work (Delta.make ~from_version:0 ~to_version:1 [ op ]);
    ops := op :: !ops
  in
  (* has_match.(idx): the new subtree contains at least one matched node. *)
  let has_match = Hashtbl.create 64 in
  let rec compute n =
    let own = Hashtbl.mem m.old_of_new n.idx in
    let any = List.fold_left (fun acc k -> compute k || acc) own n.kids in
    Hashtbl.replace has_match n.idx any;
    any
  in
  ignore (compute new_root);
  let rec fresh_tree n =
    let xid = Xid.Gen.next gen in
    match n.shape with
    | Stext content -> Vnode.Text { xid; content }
    | Selem (tag, attrs) ->
      Vnode.Elem { xid; tag; attrs; children = List.map fresh_tree n.kids }
  in
  let reconcile_shape oxid (n : nnode) =
    match (n.shape, Xidmap.content work oxid) with
    | Stext new_text, Xidmap.Text old_text ->
      if not (String.equal old_text new_text) then
        emit (Delta.Update { xid = oxid; old_text; new_text })
    | Selem (new_tag, new_attrs), Xidmap.Element { tag = old_tag; attrs = old_attrs }
      ->
      if not (String.equal old_tag new_tag) then
        emit (Delta.Rename { xid = oxid; old_tag; new_tag });
      List.iter
        (fun (name, old_value) ->
          match List.assoc_opt name new_attrs with
          | None ->
            emit
              (Delta.Set_attr
                 { xid = oxid; name; old_value = Some old_value; new_value = None })
          | Some v when not (String.equal v old_value) ->
            emit
              (Delta.Set_attr
                 {
                   xid = oxid;
                   name;
                   old_value = Some old_value;
                   new_value = Some v;
                 })
          | Some _ -> ())
        old_attrs;
      List.iter
        (fun (name, new_value) ->
          if not (List.mem_assoc name old_attrs) then
            emit
              (Delta.Set_attr
                 { xid = oxid; name; old_value = None; new_value = Some new_value }))
        new_attrs
    | Stext _, Xidmap.Element _ | Selem _, Xidmap.Text _ ->
      (* Shallow keys agree for every matched pair, so kinds agree. *)
      assert false
  in
  let opt_xid_equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> Xid.equal x y
    | None, Some _ | Some _, None -> false
  in
  let rec realize (n : nnode) ~parent ~after : Xid.t * Vnode.t =
    match Hashtbl.find_opt m.old_of_new n.idx with
    | Some oxid ->
      reconcile_shape oxid n;
      let cur_parent = Xidmap.parent work oxid in
      let cur_left = Xidmap.left_sibling work oxid in
      (if (not (opt_xid_equal cur_parent (Some parent)))
          || not (opt_xid_equal cur_left after)
       then
         match cur_parent with
         | Some old_parent ->
           emit
             (Delta.Move
                {
                  xid = oxid;
                  old_parent;
                  old_after = cur_left;
                  new_parent = parent;
                  new_after = after;
                })
         | None -> assert false (* only the root has no parent; never moved *));
      let kids = realize_children n oxid in
      let v =
        match n.shape with
        | Stext content -> Vnode.Text { xid = oxid; content }
        | Selem (tag, attrs) -> Vnode.Elem { xid = oxid; tag; attrs; children = kids }
      in
      (oxid, v)
    | None ->
      if not (Hashtbl.find has_match n.idx) then begin
        (* Clean insert: the whole new subtree is fresh. *)
        let tree = fresh_tree n in
        emit (Delta.Insert { parent; after; tree });
        (Vnode.xid tree, tree)
      end
      else begin
        (* The subtree contains matched nodes that must be moved in; insert
           this node alone, then realize children under it. *)
        let xid = Xid.Gen.next gen in
        let single =
          match n.shape with
          | Stext content -> Vnode.Text { xid; content }
          | Selem (tag, attrs) -> Vnode.Elem { xid; tag; attrs; children = [] }
        in
        emit (Delta.Insert { parent; after; tree = single });
        let kids = realize_children n xid in
        let v =
          match n.shape with
          | Stext content -> Vnode.Text { xid; content }
          | Selem (tag, attrs) -> Vnode.Elem { xid; tag; attrs; children = kids }
        in
        (xid, v)
      end
  and realize_children (n : nnode) parent =
    let _, rev_kids =
      List.fold_left
        (fun (after, acc) kid ->
          let kid_xid, v = realize kid ~parent ~after in
          (Some kid_xid, v :: acc))
        (None, []) n.kids
    in
    List.rev rev_kids
  in
  (* Root: fix shape in place, realize children. *)
  let root_xid = Vnode.xid old_tree in
  reconcile_shape root_xid new_root;
  let root_kids = realize_children new_root root_xid in
  let new_version =
    match new_root.shape with
    | Stext content -> Vnode.Text { xid = root_xid; content }
    | Selem (tag, attrs) ->
      Vnode.Elem { xid = root_xid; tag; attrs; children = root_kids }
  in
  (* Deletes: every old node with no match, removed as maximal subtrees.
     After the walk, matched nodes sit under realized parents, so unmatched
     subtrees contain only unmatched nodes. *)
  let unmatched =
    List.filter
      (fun x -> not (Xid.Table.mem m.new_of_old x))
      (Vnode.xids old_tree)
  in
  let rec delete_maximal x =
    if Xidmap.mem work x then begin
      match Xidmap.parent work x with
      | None -> assert false (* root is always matched *)
      | Some parent ->
        if Xid.Table.mem m.new_of_old parent then begin
          let after = Xidmap.left_sibling work x in
          let tree = Xidmap.subtree work x in
          emit (Delta.Delete { parent; after; tree })
        end
        else
          (* Parent is itself unmatched; delete it first. *)
          delete_maximal parent
    end
  in
  List.iter delete_maximal unmatched;
  (List.rev !ops, new_version, work)

let diff ~gen ~old_tree ~new_tree =
  (match new_tree with
   | Txq_xml.Xml.Text _ -> invalid_arg "Diff.diff: new document root is a text node"
   | Txq_xml.Xml.Element _ -> ());
  let new_root, _count = index_new_tree new_tree in
  let m =
    {
      old_of_new = Hashtbl.create 256;
      new_of_old = Xid.Table.create 256;
      exact = Hashtbl.create 64;
    }
  in
  (* Roots are matched up front so phase A cannot capture either root. *)
  Hashtbl.replace m.old_of_new new_root.idx (Vnode.xid old_tree);
  Xid.Table.replace m.new_of_old (Vnode.xid old_tree) new_root.idx;
  phase_exact m ~old_root:old_tree ~new_root;
  phase_align m ~old_root:old_tree ~new_root;
  let ops, new_version, _work = phase_script m ~gen ~old_tree ~new_root in
  (Delta.make ~from_version:0 ~to_version:1 ops, new_version)

let diff_vnodes ~gen old_tree new_vnode =
  let delta, _ = diff ~gen ~old_tree ~new_tree:(Vnode.to_xml new_vnode) in
  delta
