type content =
  | Element of { tag : string; attrs : (string * string) list }
  | Text of string

type node = {
  mutable node_content : content;
  mutable node_children : Xid.t list;
  mutable node_parent : Xid.t option;
}

type t = { nodes : node Xid.Table.t; map_root : Xid.t }

let fail fmt = Printf.ksprintf invalid_arg fmt

let of_vnode vroot =
  let nodes = Xid.Table.create 64 in
  let rec add parent v =
    let xid = Vnode.xid v in
    if Xid.Table.mem nodes xid then
      fail "Xidmap.of_vnode: duplicate xid %d" (Xid.to_int xid);
    (match v with
     | Vnode.Text { content; _ } ->
       Xid.Table.replace nodes xid
         { node_content = Text content; node_children = []; node_parent = parent }
     | Vnode.Elem e ->
       Xid.Table.replace nodes xid
         {
           node_content = Element { tag = e.tag; attrs = e.attrs };
           node_children = List.map Vnode.xid e.children;
           node_parent = parent;
         };
       List.iter (add (Some xid)) e.children)
  in
  add None vroot;
  { nodes; map_root = Vnode.xid vroot }

let get t xid =
  match Xid.Table.find_opt t.nodes xid with
  | Some n -> n
  | None -> fail "Xidmap: unknown xid %d" (Xid.to_int xid)

let root t = t.map_root
let mem t xid = Xid.Table.mem t.nodes xid
let content t xid = (get t xid).node_content
let children t xid = (get t xid).node_children
let parent t xid = (get t xid).node_parent
let size t = Xid.Table.length t.nodes

let left_sibling t xid =
  match (get t xid).node_parent with
  | None -> None
  | Some p ->
    let rec go prev = function
      | [] -> fail "Xidmap: broken child list for xid %d" (Xid.to_int xid)
      | c :: rest -> if Xid.equal c xid then prev else go (Some c) rest
    in
    go None (get t p).node_children

let rec subtree t xid =
  let n = get t xid in
  match n.node_content with
  | Text content -> Vnode.Text { xid; content }
  | Element { tag; attrs } ->
    Vnode.Elem { xid; tag; attrs; children = List.map (subtree t) n.node_children }

let to_vnode t = subtree t t.map_root

let is_ancestor t anc xid =
  let rec go cur =
    Xid.equal cur anc
    ||
    match (get t cur).node_parent with
    | None -> false
    | Some p -> go p
  in
  go xid

let splice_in t ~parent ~after child_xid =
  let pnode = get t parent in
  (match pnode.node_content with
   | Text _ -> fail "Xidmap: xid %d is a text node, cannot hold children"
                 (Xid.to_int parent)
   | Element _ -> ());
  let rec insert = function
    | [] -> (
      match after with
      | None -> [child_xid]
      | Some a -> fail "Xidmap: anchor %d is not a child of %d" (Xid.to_int a)
                    (Xid.to_int parent))
    | c :: rest -> (
      match after with
      | Some a when Xid.equal c a -> c :: child_xid :: rest
      | _ -> c :: insert rest)
  in
  let new_children =
    match after with
    | None -> child_xid :: pnode.node_children
    | Some _ -> insert pnode.node_children
  in
  pnode.node_children <- new_children;
  (get t child_xid).node_parent <- Some parent

let unsplice t xid =
  match (get t xid).node_parent with
  | None -> fail "Xidmap: cannot detach the root (xid %d)" (Xid.to_int xid)
  | Some p ->
    let pnode = get t p in
    pnode.node_children <-
      List.filter (fun c -> not (Xid.equal c xid)) pnode.node_children;
    (get t xid).node_parent <- None

let insert_tree t ~parent ~after vnode =
  ignore (get t parent);
  (match after with
   | Some a ->
     if not (List.exists (Xid.equal a) (get t parent).node_children) then
       fail "Xidmap.insert_tree: anchor %d is not a child of %d"
         (Xid.to_int a) (Xid.to_int parent)
   | None -> ());
  List.iter
    (fun xid ->
      if mem t xid then
        fail "Xidmap.insert_tree: xid %d already present" (Xid.to_int xid))
    (Vnode.xids vnode);
  (* Register the subtree's nodes, then link its root into the parent. *)
  let rec add p v =
    let xid = Vnode.xid v in
    match v with
    | Vnode.Text { content; _ } ->
      Xid.Table.replace t.nodes xid
        { node_content = Text content; node_children = []; node_parent = p }
    | Vnode.Elem e ->
      Xid.Table.replace t.nodes xid
        {
          node_content = Element { tag = e.tag; attrs = e.attrs };
          node_children = List.map Vnode.xid e.children;
          node_parent = p;
        };
      List.iter (add (Some xid)) e.children
  in
  add None vnode;
  splice_in t ~parent ~after (Vnode.xid vnode)

let delete_subtree t xid =
  if Xid.equal xid t.map_root then
    fail "Xidmap.delete_subtree: cannot delete the root";
  let tree = subtree t xid in
  unsplice t xid;
  List.iter (Xid.Table.remove t.nodes) (Vnode.xids tree);
  tree

let move t xid ~parent ~after =
  if Xid.equal xid t.map_root then fail "Xidmap.move: cannot move the root";
  ignore (get t parent);
  if is_ancestor t xid parent then
    fail "Xidmap.move: xid %d is an ancestor of target parent %d"
      (Xid.to_int xid) (Xid.to_int parent);
  (match after with
   | Some a when Xid.equal a xid -> fail "Xidmap.move: node anchored on itself"
   | _ -> ());
  unsplice t xid;
  splice_in t ~parent ~after xid

let update_text t xid text =
  let n = get t xid in
  match n.node_content with
  | Text _ -> n.node_content <- Text text
  | Element _ ->
    fail "Xidmap.update_text: xid %d is an element" (Xid.to_int xid)

let rename t xid tag =
  let n = get t xid in
  match n.node_content with
  | Element { attrs; _ } -> n.node_content <- Element { tag; attrs }
  | Text _ -> fail "Xidmap.rename: xid %d is a text node" (Xid.to_int xid)

let set_attr t xid ~name ~value =
  let n = get t xid in
  match n.node_content with
  | Text _ -> fail "Xidmap.set_attr: xid %d is a text node" (Xid.to_int xid)
  | Element { tag; attrs } ->
    let attrs =
      match value with
      | None -> List.filter (fun (k, _) -> not (String.equal k name)) attrs
      | Some v ->
        if List.exists (fun (k, _) -> String.equal k name) attrs then
          List.map (fun (k, old) -> if String.equal k name then (k, v) else (k, old))
            attrs
        else Vnode.sort_attrs ((name, v) :: attrs)
    in
    n.node_content <- Element { tag; attrs }
