type content =
  | Element of { tag : string; attrs : (string * string) list }
  | Text of string

(* An open-addressed, linearly probed table from XID to two things: the
   node's current [Vnode.t] and its parent's XID.  [of_vnode] stores the
   given tree's own nodes, so nothing is copied.  A mutator replaces the
   [Vnode.t] of the one node it changes by a new one (new content, or the
   child list with one child added or dropped) and marks the node's
   ancestors dirty.  Invariants:
   - a clean slot's [Vnode.t] is exactly the node's current subtree;
   - a dirty slot's [Vnode.t] has the node's current content and its
     children's current XIDs, in order, but the child subtrees it holds
     may be stale;
   - a dirty node's parent is dirty.
   [emit] rebuilds the dirty spine under a node from the clean subtrees
   and stores the results back as clean entries. *)
type t = {
  mutable nodes : Vnode.t array;  (** [placeholder] in a free slot *)
  mutable parents : int array;  (** parent's XID, [no_parent] for the root *)
  mutable dirty : Bytes.t;  (** ['\001'] where the slot's tree may be stale *)
  mutable count : int;
  mutable bits : int;  (** capacity is [1 lsl bits] *)
  map_root : Xid.t;
}

let no_parent = -1
let placeholder = Vnode.Text { xid = Xid.of_int 0; content = "" }

let fail fmt = Printf.ksprintf invalid_arg fmt

(* Fibonacci hashing: the top [bits] bits of the XID times an odd constant
   near 2^63 / phi.  Dense XIDs spread evenly, and runs of XIDs far apart
   (a copied subtree's fresh ones beside the survivors) cannot land on the
   same stretch of slots, as they would under [xid land mask] once the
   largest XID passes the capacity. *)
let home bits x = (x * 0x4F1BBCDCBFA53E0B) lsr (63 - bits)

(* The slot holding [x], or [-1 - i] for the free slot [i] where it would
   go.  A slot's key is its node's own XID, so no key array is kept.  The
   table is never full, so the probe ends. *)
let rec probe_from nodes mask x i =
  let v = Array.unsafe_get nodes i in
  if v == placeholder then -1 - i
  else if Xid.to_int (Vnode.xid v) = x then i
  else probe_from nodes mask x ((i + 1) land mask)

let probe t x = probe_from t.nodes ((1 lsl t.bits) - 1) x (home t.bits x)

let slot t xid =
  let i = probe t (Xid.to_int xid) in
  if i < 0 then fail "Xidmap: unknown xid %d" (Xid.to_int xid);
  i

let set t i v parent =
  t.nodes.(i) <- v;
  t.parents.(i) <- parent;
  Bytes.unsafe_set t.dirty i '\000'

(* Load factor at most 3/4: capacity the least power of two at least 4/3
   of [n], and at least 8. *)
let bits_for n =
  let rec go b = if 3 lsl b >= 4 * n then b else go (b + 1) in
  go 3

let alloc t bits =
  let cap = 1 lsl bits in
  t.nodes <- Array.make cap placeholder;
  t.parents <- Array.make cap no_parent;
  t.dirty <- Bytes.make cap '\000';
  t.bits <- bits

let reserve t n =
  if 4 * (t.count + n) > 3 lsl t.bits then begin
    let nodes = t.nodes and parents = t.parents and dirty = t.dirty in
    alloc t (bits_for (t.count + n));
    Array.iteri
      (fun j v ->
        if v != placeholder then begin
          let i = -1 - probe t (Xid.to_int (Vnode.xid v)) in
          set t i v parents.(j);
          Bytes.unsafe_set t.dirty i (Bytes.unsafe_get dirty j)
        end)
      nodes
  end

(* Backward-shift deletion (Knuth's Algorithm R): entries after the hole
   that probed past it move back into it, so no tombstones build up. *)
let remove t x =
  let mask = (1 lsl t.bits) - 1 in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let v = t.nodes.(j) in
    if v == placeholder then t.nodes.(hole) <- placeholder
    else
      let h = home t.bits (Xid.to_int (Vnode.xid v)) in
      let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
      if stays then shift hole j
      else begin
        set t hole v t.parents.(j);
        Bytes.unsafe_set t.dirty hole (Bytes.unsafe_get t.dirty j);
        shift j j
      end
  in
  let i = probe t x in
  if i >= 0 then begin
    shift i i;
    t.count <- t.count - 1
  end

(* Registers [v] and its descendants, clean, under [parent]; [on_dup] is
   called with an XID already present. *)
let rec index t ~on_dup parent v =
  let x = Xid.to_int (Vnode.xid v) in
  let i = probe t x in
  if i >= 0 then on_dup x;
  set t (-1 - i) v parent;
  t.count <- t.count + 1;
  match v with
  | Vnode.Text _ -> ()
  | Vnode.Elem e -> index_children t ~on_dup x e.children

and index_children t ~on_dup x = function
  | [] -> ()
  | c :: rest ->
    index t ~on_dup x c;
    index_children t ~on_dup x rest

let of_vnode vroot =
  let t =
    { nodes = [||]; parents = [||]; dirty = Bytes.empty;
      count = 0; bits = 0; map_root = Vnode.xid vroot }
  in
  alloc t (bits_for (Vnode.size vroot));
  index t no_parent vroot
    ~on_dup:(fun x -> fail "Xidmap.of_vnode: duplicate xid %d" x);
  t

(* --- rebuilding the dirty spine ----------------------------------------- *)

let rec emit t i =
  if Bytes.unsafe_get t.dirty i = '\000' then t.nodes.(i)
  else begin
    let v =
      match t.nodes.(i) with
      | Vnode.Text _ as v -> v
      | Vnode.Elem e as v ->
        let children = emit_children t e.children in
        if children == e.children then v else Vnode.Elem { e with children }
    in
    t.nodes.(i) <- v;
    Bytes.unsafe_set t.dirty i '\000';
    v
  end

(* The current children, sharing the given list where nothing changed. *)
and emit_children t l =
  match l with
  | [] -> l
  | c :: rest ->
    let c' = emit t (slot t (Vnode.xid c)) in
    let rest' = emit_children t rest in
    if c' == c && rest' == rest then l else c' :: rest'

let subtree t xid = emit t (slot t xid)
let to_vnode t = subtree t t.map_root

(* Marks [x] and its ancestors dirty, up to the first already dirty. *)
let rec mark t x =
  if x <> no_parent then begin
    let i = probe t x in
    if Bytes.unsafe_get t.dirty i = '\000' then begin
      Bytes.unsafe_set t.dirty i '\001';
      mark t t.parents.(i)
    end
  end

(* Stores [v], the node in slot [i] with new content or with one child
   more or less, and dirties its ancestors.  The node's own flag stands:
   [v]'s children are as current as those of the tree it replaces. *)
let replace t i v =
  t.nodes.(i) <- v;
  mark t t.parents.(i)

(* --- queries ------------------------------------------------------------ *)

let root t = t.map_root
let mem t xid = probe t (Xid.to_int xid) >= 0
let size t = t.count

let content t xid =
  match t.nodes.(slot t xid) with
  | Vnode.Text { content; _ } -> Text content
  | Vnode.Elem { tag; attrs; _ } -> Element { tag; attrs }

let children t xid =
  match t.nodes.(slot t xid) with
  | Vnode.Text _ -> []
  | Vnode.Elem e -> List.map Vnode.xid e.children

let parent t xid =
  let p = t.parents.(slot t xid) in
  if p = no_parent then None else Some (Xid.of_int p)

let left_sibling t xid =
  let p = t.parents.(slot t xid) in
  if p = no_parent then None
  else
    let rec go prev = function
      | [] -> fail "Xidmap: broken child list for xid %d" (Xid.to_int xid)
      | c :: rest ->
        let c = Vnode.xid c in
        if Xid.equal c xid then prev else go (Some c) rest
    in
    go None (Vnode.children t.nodes.(probe t p))

(* --- mutators ------------------------------------------------------------ *)

(* Every check runs before the first change, so a raising mutator leaves
   the map as it was. *)

let is_child xid children =
  List.exists (fun c -> Xid.equal (Vnode.xid c) xid) children

(* The element in slot [i], for a child list to change under it. *)
let holder t i parent =
  match t.nodes.(i) with
  | Vnode.Elem e -> e
  | Vnode.Text _ ->
    fail "Xidmap: xid %d is a text node, cannot hold children"
      (Xid.to_int parent)

(* What [splice_in] needs: an element in slot [i], holding the anchor. *)
let check_splice t i parent after =
  let e = holder t i parent in
  match after with
  | Some a when not (is_child a e.children) ->
    fail "Xidmap: anchor %d is not a child of %d" (Xid.to_int a)
      (Xid.to_int parent)
  | _ -> ()

(* Links [child], whose slot already names [parent], into the parent's
   child list after [after].  A dirty child leaves the parent's list stale,
   so the parent turns dirty with it. *)
let splice_in t ~parent ~after child =
  let i = slot t parent in
  let e = holder t i parent in
  let children =
    match after with
    | None -> child :: e.children
    | Some a ->
      let rec go = function
        | [] -> assert false (* anchor checked *)
        | c :: rest ->
          if Xid.equal (Vnode.xid c) a then c :: child :: rest else c :: go rest
      in
      go e.children
  in
  t.nodes.(i) <- Vnode.Elem { e with children };
  if Bytes.unsafe_get t.dirty (slot t (Vnode.xid child)) = '\001' then
    mark t (Xid.to_int parent)
  else mark t t.parents.(i)

(* Drops [xid], not the root, from its parent's child list. *)
let unsplice t xid =
  let p = t.parents.(slot t xid) in
  let i = probe t p in
  let e = holder t i (Xid.of_int p) in
  let children =
    List.filter (fun c -> not (Xid.equal (Vnode.xid c) xid)) e.children
  in
  replace t i (Vnode.Elem { e with children })

let insert_tree t ~parent ~after vnode =
  let i = slot t parent in
  (match after with
   | Some a when not (is_child a (Vnode.children t.nodes.(i))) ->
     fail "Xidmap.insert_tree: anchor %d is not a child of %d" (Xid.to_int a)
       (Xid.to_int parent)
   | _ -> ());
  let xids = Vnode.xids vnode in
  List.iter
    (fun xid ->
      if mem t xid then
        fail "Xidmap.insert_tree: xid %d already present" (Xid.to_int xid))
    xids;
  check_splice t i parent after;
  reserve t (List.length xids);
  (* None of the tree's XIDs is in the map, so a collision while indexing
     is one the tree repeats: drop what was indexed and refuse. *)
  index t (Xid.to_int parent) vnode ~on_dup:(fun x ->
      List.iter (fun xid -> remove t (Xid.to_int xid)) xids;
      fail "Xidmap.insert_tree: xid %d repeats in the inserted tree" x);
  splice_in t ~parent ~after vnode

let rec remove_tree t = function
  | Vnode.Text { xid; _ } -> remove t (Xid.to_int xid)
  | Vnode.Elem e ->
    remove t (Xid.to_int e.xid);
    List.iter (remove_tree t) e.children

let delete_subtree t xid =
  if Xid.equal xid t.map_root then
    fail "Xidmap.delete_subtree: cannot delete the root";
  let tree = subtree t xid in
  unsplice t xid;
  remove_tree t tree;
  tree

let is_ancestor t anc xid =
  let anc = Xid.to_int anc in
  let rec go x = x = anc || (x <> no_parent && go t.parents.(probe t x)) in
  go (Xid.to_int xid)

let move t xid ~parent ~after =
  if Xid.equal xid t.map_root then fail "Xidmap.move: cannot move the root";
  let i = slot t parent in
  if is_ancestor t xid parent then
    fail "Xidmap.move: xid %d is an ancestor of target parent %d"
      (Xid.to_int xid) (Xid.to_int parent);
  (match after with
   | Some a when Xid.equal a xid -> fail "Xidmap.move: node anchored on itself"
   | _ -> ());
  let j = slot t xid in
  check_splice t i parent after;
  unsplice t xid;
  t.parents.(j) <- Xid.to_int parent;
  splice_in t ~parent ~after t.nodes.(j)

let update_text t xid text =
  let i = slot t xid in
  match t.nodes.(i) with
  | Vnode.Text _ -> replace t i (Vnode.Text { xid; content = text })
  | Vnode.Elem _ ->
    fail "Xidmap.update_text: xid %d is an element" (Xid.to_int xid)

let rename t xid tag =
  let i = slot t xid in
  match t.nodes.(i) with
  | Vnode.Elem e -> replace t i (Vnode.Elem { e with tag })
  | Vnode.Text _ -> fail "Xidmap.rename: xid %d is a text node" (Xid.to_int xid)

let set_attr t xid ~name ~value =
  let i = slot t xid in
  match t.nodes.(i) with
  | Vnode.Text _ -> fail "Xidmap.set_attr: xid %d is a text node" (Xid.to_int xid)
  | Vnode.Elem e ->
    let attrs =
      match value with
      | None -> List.filter (fun (k, _) -> not (String.equal k name)) e.attrs
      | Some v ->
        if List.exists (fun (k, _) -> String.equal k name) e.attrs then
          List.map
            (fun (k, old) -> if String.equal k name then (k, v) else (k, old))
            e.attrs
        else Vnode.sort_attrs ((name, v) :: e.attrs)
    in
    replace t i (Vnode.Elem { e with attrs })
