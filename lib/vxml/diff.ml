let min_hash_match_size = 3

(* Both trees are indexed once, hashes and sizes bottom-up.  All matching
   and script state lives in mutable fields of these records, so a diff
   allocates no table keyed by node or XID (DESIGN §20). *)
type onode = {
  v : Vnode.t;
  okids : onode array;
  mutable oparent : onode;
  pos : int;  (* index among the old parent's children *)
  mutable ohash : int;
  mutable osize : int;
  mutable partner : nnode;
  mutable busy : bool;  (* a strict descendant was matched in phase A *)
  mutable chain : onode;  (* next old node of the same hash bucket *)
  (* Script state: [prev]/[next] link the children still standing in their
     old parent's list; [trail] is the last node placed right after this
     (kept) child, [front] the last node placed before this node's first
     standing child. *)
  mutable prev : onode;
  mutable next : onode;
  mutable kept : bool;
  mutable trail : Xid.t option;
  mutable front : Xid.t option;
}

and nnode = {
  label : string;  (* tag, or text content *)
  attrs : (string * string) list;  (* canonical order *)
  is_text : bool;
  nkids : nnode array;
  nhash : int;
  nsize : int;
  mutable match_ : onode;
  mutable exact : bool;  (* matched with its whole subtree in phase A *)
  mutable has_match : bool;  (* unmatched, with a match below it *)
}

let rec no_o =
  { v = Vnode.Text { xid = Xid.of_int 0; content = "" }; okids = [||];
    oparent = no_o; pos = 0; ohash = 0; osize = 0; partner = no_n;
    busy = false; chain = no_o; prev = no_o; next = no_o; kept = false;
    trail = None; front = None }

and no_n =
  { label = ""; attrs = []; is_text = true; nkids = [||]; nhash = 0;
    nsize = 0; match_ = no_o; exact = false; has_match = false }

(* Same combiner as [Vnode.structural_hash]. *)
let combine h x = (h * 1_000_003) lxor x
let hash_string h s = combine h (Hashtbl.hash s)
let hash_attrs h attrs =
  List.fold_left (fun h (n, v) -> hash_string (hash_string h n) v) h attrs

(* Phase A buckets: a fixed number of slots, each chaining its old nodes
   in preorder through [chain]. *)
let bucket_mask = 255

let xid_of o = Vnode.xid o.v

(* The kids are indexed right to left and each enters its bucket after its
   descendants, so every chain lists its nodes in preorder.  The root
   enters no bucket.  Old attributes are hashed and compared as stored:
   the trees the store builds hold them in canonical order
   ({!Vnode.sort_attrs}), and a subtree that does not takes no exact
   match. *)
let rec index_old buckets v ~pos =
  match v with
  | Vnode.Text { content; _ } ->
    { no_o with v; pos; ohash = hash_string 7 content; osize = 1 }
  | Vnode.Elem e ->
    let okids = Array.make (List.length e.children) no_o in
    let o = { no_o with v; pos; okids } in
    index_old_kids buckets o 0 e.children;
    o.ohash <-
      Array.fold_left (fun h k -> combine h k.ohash)
        (hash_attrs (hash_string 11 e.tag) e.attrs) o.okids;
    o.osize <- Array.fold_left (fun s k -> s + k.osize) 1 o.okids;
    o

and index_old_kids buckets o i = function
  | [] -> ()
  | c :: rest ->
    index_old_kids buckets o (i + 1) rest;
    let k = index_old buckets c ~pos:i in
    o.okids.(i) <- k;
    k.oparent <- o;
    if i + 1 < Array.length o.okids then begin
      k.next <- o.okids.(i + 1);
      o.okids.(i + 1).prev <- k
    end;
    if k.osize >= min_hash_match_size then begin
      let b = k.ohash land bucket_mask in
      k.chain <- buckets.(b);
      buckets.(b) <- k
    end

let rec index_new = function
  | Txq_xml.Xml.Text content ->
    { no_n with label = content; nhash = hash_string 7 content; nsize = 1 }
  | Txq_xml.Xml.Element e ->
    let attrs =
      if e.attrs = [] then []
      else
        Vnode.sort_attrs
          (List.map (fun a -> Txq_xml.Xml.(a.attr_name, a.attr_value)) e.attrs)
    in
    let nkids = Array.make (List.length e.children) no_n in
    List.iteri (fun i c -> nkids.(i) <- index_new c) e.children;
    { label = e.tag; attrs; is_text = false; nkids;
      nhash =
        Array.fold_left (fun h k -> combine h k.nhash)
          (hash_attrs (hash_string 11 e.tag) attrs) nkids;
      nsize = Array.fold_left (fun s k -> s + k.nsize) 1 nkids;
      match_ = no_o; exact = false; has_match = false }

let bind o n = o.partner <- n; n.match_ <- o

let is_text o = match o.v with Vnode.Text _ -> true | Vnode.Elem _ -> false

(* The shallow key the alignment compares: tag, or text-ness. *)
let same_key o n =
  match o.v with
  | Vnode.Text _ -> n.is_text
  | Vnode.Elem e -> (not n.is_text) && String.equal e.tag n.label

let rec equal_shape o n =
  match o.v with
  | Vnode.Text { content; _ } -> n.is_text && String.equal content n.label
  | Vnode.Elem e ->
    (not n.is_text) && String.equal e.tag n.label
    && List.equal
         (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && String.equal v1 v2)
         e.attrs n.attrs
    && Array.length o.okids = Array.length n.nkids
    && equal_kids o.okids n.nkids 0

and equal_kids a b i =
  i = Array.length a || (equal_shape a.(i) b.(i) && equal_kids a b (i + 1))

(* Phase A: exact-subtree matching by structural hash, new-tree preorder,
   largest-first (a match skips the whole subtree).  A candidate must be
   free: neither it nor a descendant matched yet.  Returns whether the
   subtree holds a match, which is [has_match] for unmatched nodes. *)
let rec candidate o n =
  if o == no_o || n.nsize < min_hash_match_size then no_o
  else if o.ohash = n.nhash && o.partner == no_n && (not o.busy)
          && equal_shape o n
  then o
  else candidate o.chain n

let rec match_subtrees o n =
  bind o n;
  Array.iter2 match_subtrees o.okids n.nkids

let rec mark_busy p =
  if p != no_o && not p.busy then begin
    p.busy <- true;
    mark_busy p.oparent
  end

let rec phase_exact buckets n =
  let o = candidate buckets.(n.nhash land bucket_mask) n in
  if o != no_o then begin
    match_subtrees o n;
    n.exact <- true;
    mark_busy o.oparent;
    true
  end
  else
    let any = ref false in
    for i = 0 to Array.length n.nkids - 1 do
      if phase_exact buckets n.nkids.(i) then any := true
    done;
    n.has_match <- !any;
    !any

(* Alignment equality: two already-matched nodes are equal iff matched to
   each other; two unmatched nodes iff their shallow keys agree. *)
let aligned o n =
  if o.partner != no_n then o.partner == n
  else n.match_ == no_o && same_key o n

(* Longest common subsequence of [a] and [b] under [aligned], binding its
   pairs leftmost-first.  The walk pairs a common prefix without consulting
   the table, so the table covers only what follows it. *)
let rec bind_prefix a b i =
  if i < Array.length a && i < Array.length b && aligned a.(i) b.(i) then begin
    if a.(i).partner == no_n then bind a.(i) b.(i);
    bind_prefix a b (i + 1)
  end
  else i

let lcs_bind a b =
  let from = bind_prefix a b 0 in
  let la = Array.length a - from and lb = Array.length b - from in
  if la > 0 && lb > 0 then begin
    let table = Array.make_matrix (la + 1) (lb + 1) 0 in
    for i = la - 1 downto 0 do
      for j = lb - 1 downto 0 do
        table.(i).(j) <-
          (if aligned a.(from + i) b.(from + j) then 1 + table.(i + 1).(j + 1)
           else Stdlib.max table.(i + 1).(j) table.(i).(j + 1))
      done
    done;
    let rec walk i j =
      if i < la && j < lb then
        let o = a.(from + i) and n = b.(from + j) in
        if aligned o n then begin
          if o.partner == no_n then bind o n;
          walk (i + 1) (j + 1)
        end
        else if table.(i + 1).(j) >= table.(i).(j + 1) then walk (i + 1) j
        else walk i (j + 1)
    in
    walk 0 0
  end

let rec bind_in_order a b i j =
  if i < Array.length a && j < Array.length b then
    if a.(i).partner != no_n || is_text a.(i) then bind_in_order a b (i + 1) j
    else if b.(j).match_ != no_o || b.(j).is_text then
      bind_in_order a b i (j + 1)
    else begin
      bind a.(i) b.(j);
      bind_in_order a b (i + 1) (j + 1)
    end

(* Phase B: top-down child alignment of matched pairs.  LCS pins the common
   order; a greedy same-key pass afterwards turns reorders into moves rather
   than delete+insert pairs; a positional pass pairs leftover elements so a
   renamed one keeps its identity (one Rename, not a delete+insert pair).
   Only the pair's own children change state, so the descent order is
   free. *)
let rec phase_align o n =
  let a = o.okids and b = n.nkids in
  lcs_bind a b;
  for i = 0 to Array.length a - 1 do
    let o = a.(i) in
    if o.partner == no_n then
      Option.iter (bind o)
        (Array.find_opt (fun n -> n.match_ == no_o && same_key o n) b)
  done;
  bind_in_order a b 0 0;
  for j = 0 to Array.length b - 1 do
    let n = b.(j) in
    if n.match_ != no_o && not n.exact then phase_align n.match_ n
  done

(* Phase C: the script, generated in one new-tree preorder walk.  Among the
   children a matched parent keeps from its old version, the longest run
   in old order (an LIS of old positions) stays in place; every other
   matched child is moved, every unmatched one inserted, each right after
   its new left sibling.  Old child lists are tracked only through the
   [prev]/[next]/[trail]/[front] fields, which is all a Move or Delete
   needs to name its current left sibling. *)

(* Current left sibling of a node still standing in its old parent. *)
let left o =
  if o.prev == no_o then o.oparent.front
  else match o.prev.trail with None -> Some (xid_of o.prev) | t -> t

let unlink o =
  if o.prev != no_o then o.prev.next <- o.next;
  if o.next != no_o then o.next.prev <- o.prev

(* Records a node placed into [owner]'s list right after [anchor] (the
   last kept child so far, [no_o] before the first) or after the nodes
   placed there already; [no_o] owners are inserted nodes. *)
let landed ~owner ~anchor xid =
  if owner != no_o then
    if anchor == no_o then owner.front <- Some xid else anchor.trail <- Some xid

let stays owner k = k.match_ != no_o && k.match_.oparent == owner

(* Marks [kept] the children of [owner]'s new partner that stay in place:
   a longest run of them in old order, by patience sorting their old
   positions ([tails.(l)] ends the best run of length [l + 1] so far,
   [pred] links each child to the one before it in its run). *)
let mark_kept owner kids =
  let c = Array.length kids in
  let tails = Array.make c 0 and pred = Array.make c (-1) and len = ref 0 in
  for i = 0 to c - 1 do
    if stays owner kids.(i) then begin
      let lo = ref 0 and hi = ref !len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if kids.(tails.(mid)).match_.pos < kids.(i).match_.pos then
          lo := mid + 1
        else hi := mid
      done;
      if !lo > 0 then pred.(i) <- tails.(!lo - 1);
      tails.(!lo) <- i;
      if !lo = !len then incr len
    end
  done;
  let i = ref (if !len > 0 then tails.(!len - 1) else -1) in
  while !i >= 0 do
    kids.(!i).match_.kept <- true;
    i := pred.(!i)
  done

let phase_script ~gen ~old_root ~new_root =
  let ops = ref [] in
  let emit op = ops := op :: !ops in
  let reconcile o n =
    let xid = xid_of o in
    match o.v with
    | Vnode.Text { content = old_text; _ } ->
      if not (String.equal old_text n.label) then
        emit (Delta.Update { xid; old_text; new_text = n.label })
    | Vnode.Elem { tag = old_tag; attrs = old_attrs; _ } ->
      if not (String.equal old_tag n.label) then
        emit (Delta.Rename { xid; old_tag; new_tag = n.label });
      if old_attrs != [] || n.attrs != [] then begin
        let set name old_value new_value =
          emit (Delta.Set_attr { xid; name; old_value; new_value })
        in
        List.iter
          (fun (name, v) ->
            match List.assoc_opt name n.attrs with
            | Some v' when String.equal v v' -> ()
            | new_value -> set name (Some v) new_value)
          old_attrs;
        List.iter
          (fun (name, v) ->
            if not (List.mem_assoc name old_attrs) then set name None (Some v))
          n.attrs
      end
  in
  let node n xid children =
    if n.is_text then Vnode.Text { xid; content = n.label }
    else Vnode.Elem { xid; tag = n.label; attrs = n.attrs; children }
  in
  let rec fresh_tree n =
    let xid = Xid.Gen.next gen in
    node n xid (List.map fresh_tree (Array.to_list n.nkids))
  in
  (* [realize n ~parent ~after ~owner ~anchor] is the new version of
     [n]'s subtree; unless kept, [n] lands under [parent] after [after],
     recorded before its children are realized. *)
  let rec realize n ~parent ~after ~owner ~anchor =
    let o = n.match_ in
    if o != no_o then begin
      if not n.exact then reconcile o n;
      let xid = xid_of o in
      if not o.kept then begin
        emit
          (Delta.Move
             { xid; old_parent = xid_of o.oparent; old_after = left o;
               new_parent = parent; new_after = after });
        unlink o;
        landed ~owner ~anchor xid
      end;
      if n.exact then o.v else node n xid (realize_kids n xid o)
    end
    else if not n.has_match then begin
      let tree = fresh_tree n in
      emit (Delta.Insert { parent; after; tree });
      landed ~owner ~anchor (Vnode.xid tree);
      tree
    end
    else begin
      (* The subtree holds matched nodes that must be moved in: insert
         this node alone, then realize its children under it. *)
      let xid = Xid.Gen.next gen in
      emit (Delta.Insert { parent; after; tree = node n xid [] });
      landed ~owner ~anchor xid;
      node n xid (realize_kids n xid no_o)
    end
  (* [owner] is the old node whose list the children land in. *)
  and realize_kids n parent owner =
    if owner != no_o then mark_kept owner n.nkids;
    realize_from n parent owner 0 ~after:None ~anchor:no_o
  and realize_from n parent owner i ~after ~anchor =
    if i = Array.length n.nkids then []
    else
      let k = n.nkids.(i) in
      let v = realize k ~parent ~after ~owner ~anchor in
      let after = Some (Vnode.xid v) in
      let anchor = if k.match_ != no_o && k.match_.kept then k.match_ else anchor in
      v :: realize_from n parent owner (i + 1) ~after ~anchor
  in
  reconcile old_root new_root;
  let root_xid = xid_of old_root in
  let new_version =
    node new_root root_xid (realize_kids new_root root_xid old_root)
  in
  (* Deletes: every unmatched old node whose parent is matched, with what is
     left of its subtree (its matched descendants have moved out), in one
     preorder walk. *)
  let rec remains o =
    match o.v with
    | Vnode.Text _ -> o.v
    | Vnode.Elem e ->
      let kids = List.filter (fun k -> k.partner == no_n) (Array.to_list o.okids) in
      Vnode.Elem { e with children = List.map remains kids }
  in
  (* [gone]: [o] itself was deleted.  Exact matches hold no unmatched node. *)
  let rec sweep ~gone o =
    for i = 0 to Array.length o.okids - 1 do
      let k = o.okids.(i) in
      if k.partner != no_n then (if not k.partner.exact then sweep ~gone:false k)
      else begin
        if not gone then begin
          let tree = remains k in
          emit (Delta.Delete { parent = xid_of o; after = left k; tree });
          unlink k
        end;
        sweep ~gone:true k
      end
    done
  in
  sweep ~gone:false old_root;
  (List.rev !ops, new_version)

let diff ~gen ~old_tree ~new_tree =
  (match (old_tree, new_tree) with
   | Vnode.Text _, _ | _, Txq_xml.Xml.Text _ ->
     invalid_arg "Diff.diff: a document root is a text node"
   | Vnode.Elem _, Txq_xml.Xml.Element _ -> ());
  let buckets = Array.make (bucket_mask + 1) no_o in
  let old_root = index_old buckets old_tree ~pos:0 in
  let new_root = index_new new_tree in
  (* Roots are matched up front, so phase A cannot capture either root. *)
  bind old_root new_root;
  Array.iter (fun n -> ignore (phase_exact buckets n)) new_root.nkids;
  phase_align old_root new_root;
  let ops, new_version = phase_script ~gen ~old_root ~new_root in
  (Delta.make ~from_version:0 ~to_version:1 ops, new_version)

let diff_vnodes ~gen old_tree new_vnode =
  let delta, _ = diff ~gen ~old_tree ~new_tree:(Vnode.to_xml new_vnode) in
  delta
