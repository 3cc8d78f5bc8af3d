type op =
  | Insert of { parent : Xid.t; after : Xid.t option; tree : Vnode.t }
  | Delete of { parent : Xid.t; after : Xid.t option; tree : Vnode.t }
  | Update of { xid : Xid.t; old_text : string; new_text : string }
  | Rename of { xid : Xid.t; old_tag : string; new_tag : string }
  | Set_attr of {
      xid : Xid.t;
      name : string;
      old_value : string option;
      new_value : string option;
    }
  | Move of {
      xid : Xid.t;
      old_parent : Xid.t;
      old_after : Xid.t option;
      new_parent : Xid.t;
      new_after : Xid.t option;
    }

type t = { from_version : int; to_version : int; ops : op list }

let make ~from_version ~to_version ops = { from_version; to_version; ops }
let op_count t = List.length t.ops
let is_empty t = t.ops = []

(* Rough heap footprint in the manner of [Vnode.approx_bytes]: a fixed
   per-op overhead (the op block, its list cell, XIDs and options) plus the
   subtrees and strings it carries.  Only used for cache budgeting. *)
let op_overhead = 64

let approx_bytes t =
  List.fold_left
    (fun acc op ->
      acc + op_overhead
      +
      match op with
      | Insert { tree; _ } | Delete { tree; _ } -> Vnode.approx_bytes tree
      | Update { old_text; new_text; _ } ->
        String.length old_text + String.length new_text
      | Rename { old_tag; new_tag; _ } ->
        String.length old_tag + String.length new_tag
      | Set_attr { name; old_value; new_value; _ } ->
        let opt = function Some v -> String.length v | None -> 0 in
        String.length name + opt old_value + opt new_value
      | Move _ -> 0)
    op_overhead t.ops

let invert_op = function
  | Insert { parent; after; tree } -> Delete { parent; after; tree }
  | Delete { parent; after; tree } -> Insert { parent; after; tree }
  | Update { xid; old_text; new_text } ->
    Update { xid; old_text = new_text; new_text = old_text }
  | Rename { xid; old_tag; new_tag } ->
    Rename { xid; old_tag = new_tag; new_tag = old_tag }
  | Set_attr { xid; name; old_value; new_value } ->
    Set_attr { xid; name; old_value = new_value; new_value = old_value }
  | Move { xid; old_parent; old_after; new_parent; new_after } ->
    Move
      {
        xid;
        old_parent = new_parent;
        old_after = new_after;
        new_parent = old_parent;
        new_after = old_after;
      }

let invert t =
  {
    from_version = t.to_version;
    to_version = t.from_version;
    ops = List.rev_map invert_op t.ops;
  }

let apply_op map = function
  | Insert { parent; after; tree } -> Xidmap.insert_tree map ~parent ~after tree
  | Delete { parent = _; after = _; tree } ->
    ignore (Xidmap.delete_subtree map (Vnode.xid tree))
  | Update { xid; new_text; _ } -> Xidmap.update_text map xid new_text
  | Rename { xid; new_tag; _ } -> Xidmap.rename map xid new_tag
  | Set_attr { xid; name; new_value; _ } ->
    Xidmap.set_attr map xid ~name ~value:new_value
  | Move { xid; new_parent; new_after; _ } ->
    Xidmap.move map xid ~parent:new_parent ~after:new_after

let apply_forward map t = List.iter (apply_op map) t.ops
let apply_backward map t = apply_forward map (invert t)

(* --- one element's subtree, backward -------------------------------------- *)

type local_step =
  | Untouched
  | Touched of Xidmap.t option
  | Moved_in

exception Needs_document

(* The ops are undone last-to-first, each against the state it meets going
   backward.  [cur] is the element's map in that state, [None] while the
   element is absent; an op reaches the map only if it names a node the
   map holds, so touch detection is membership. *)
let apply_backward_local root local t =
  let cur = ref local and touched = ref false in
  let touch () = touched := true in
  let contains tree = Vnode.find tree root in
  let undo op =
    match (op, !cur) with
    | Insert { tree; _ }, Some map ->
      (* undone: the inserted tree goes away *)
      let top = Vnode.xid tree in
      if Xidmap.mem map top then begin
        if Xid.equal top root then cur := None
        else ignore (Xidmap.delete_subtree map top);
        touch ()
      end
      else if Option.is_some (contains tree) then (cur := None; touch ())
    | Delete { parent; after; tree }, Some map ->
      (* undone: the deleted tree comes back *)
      if Xidmap.mem map parent then begin
        Xidmap.insert_tree map ~parent ~after tree;
        touch ()
      end
    | Delete { tree; _ }, None -> (
      match contains tree with
      | Some sub -> cur := Some (Xidmap.of_vnode sub); touch ()
      | None -> ())
    | Update { xid; old_text; _ }, Some map when Xidmap.mem map xid ->
      Xidmap.update_text map xid old_text; touch ()
    | Rename { xid; old_tag; _ }, Some map when Xidmap.mem map xid ->
      Xidmap.rename map xid old_tag; touch ()
    | Set_attr { xid; name; old_value; _ }, Some map when Xidmap.mem map xid ->
      Xidmap.set_attr map xid ~name ~value:old_value; touch ()
    | Move { xid; old_parent; old_after; _ }, Some map
      when not (Xid.equal xid root) -> (
      (* undone: [xid] returns to [old_parent]; the element's own move only
         repositions it, its content is unchanged *)
      match (Xidmap.mem map xid, Xidmap.mem map old_parent) with
      | true, true ->
        Xidmap.move map xid ~parent:old_parent ~after:old_after;
        touch ()
      | true, false -> ignore (Xidmap.delete_subtree map xid); touch ()
      | false, true -> raise Needs_document
      | false, false -> ())
    | (Insert _ | Update _ | Rename _ | Set_attr _ | Move _), None
    | (Update _ | Rename _ | Set_attr _ | Move _), Some _ -> ()
  in
  match List.iter undo (List.rev t.ops) with
  | () -> if !touched then Touched !cur else Untouched
  | exception Needs_document -> Moved_in

let dedup_xids xids =
  let seen = Xid.Table.create 16 in
  List.filter
    (fun x ->
      if Xid.Table.mem seen x then false
      else begin
        Xid.Table.replace seen x ();
        true
      end)
    xids

let inserted_xids t =
  dedup_xids
    (List.concat_map
       (function
         | Insert { tree; _ } -> Vnode.xids tree
         | Delete _ | Update _ | Rename _ | Set_attr _ | Move _ -> [])
       t.ops)

let deleted_xids t =
  dedup_xids
    (List.concat_map
       (function
         | Delete { tree; _ } -> Vnode.xids tree
         | Insert _ | Update _ | Rename _ | Set_attr _ | Move _ -> [])
       t.ops)

(* --- XML form --------------------------------------------------------- *)

let xid_attr name xid = (name, string_of_int (Xid.to_int xid))

(* Embedded subtrees use the codec, which handles bare text roots via its
   reserved <_text> wrapper. *)
let tree_to_xml = Codec.encode_xml
let tree_of_xml = Codec.decode_xml

let anchor_attrs after =
  match after with
  | None -> []
  | Some a -> [xid_attr "after" a]

let op_to_xml = function
  | Insert { parent; after; tree } ->
    Txq_xml.Xml.element
      ~attrs:(xid_attr "parent" parent :: anchor_attrs after)
      "insert"
      [tree_to_xml tree]
  | Delete { parent; after; tree } ->
    Txq_xml.Xml.element
      ~attrs:(xid_attr "parent" parent :: anchor_attrs after)
      "delete"
      [tree_to_xml tree]
  | Update { xid; old_text; new_text } ->
    Txq_xml.Xml.element
      ~attrs:[xid_attr "xid" xid]
      "update"
      [
        Txq_xml.Xml.element "old" [Txq_xml.Xml.text old_text];
        Txq_xml.Xml.element "new" [Txq_xml.Xml.text new_text];
      ]
  | Rename { xid; old_tag; new_tag } ->
    Txq_xml.Xml.element
      ~attrs:[xid_attr "xid" xid; ("old", old_tag); ("new", new_tag)]
      "rename" []
  | Set_attr { xid; name; old_value; new_value } ->
    let value_elem label = function
      | None -> []
      | Some v -> [Txq_xml.Xml.element label [Txq_xml.Xml.text v]]
    in
    Txq_xml.Xml.element
      ~attrs:[xid_attr "xid" xid; ("name", name)]
      "setattr"
      (value_elem "old" old_value @ value_elem "new" new_value)
  | Move { xid; old_parent; old_after; new_parent; new_after } ->
    let opt_attr name = function
      | None -> []
      | Some a -> [xid_attr name a]
    in
    Txq_xml.Xml.element
      ~attrs:
        ([xid_attr "xid" xid; xid_attr "oldparent" old_parent]
        @ opt_attr "oldafter" old_after
        @ [xid_attr "newparent" new_parent]
        @ opt_attr "newafter" new_after)
      "move" []

let to_xml t =
  Txq_xml.Xml.element
    ~attrs:
      [
        ("from", string_of_int t.from_version);
        ("to", string_of_int t.to_version);
      ]
    "delta" (List.map op_to_xml t.ops)

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let required_xid node name =
  match Txq_xml.Xml.attr node name with
  | None -> Error (Printf.sprintf "delta: missing attribute %S" name)
  | Some s -> (
    match int_of_string_opt s with
    | Some i when i >= 0 -> Ok (Xid.of_int i)
    | Some _ | None -> Error (Printf.sprintf "delta: malformed xid %S" s))

let optional_xid node name =
  match Txq_xml.Xml.attr node name with
  | None -> Ok None
  | Some s -> (
    match int_of_string_opt s with
    | Some i when i >= 0 -> Ok (Some (Xid.of_int i))
    | Some _ | None -> Error (Printf.sprintf "delta: malformed xid %S" s))

let required_attr node name =
  match Txq_xml.Xml.attr node name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "delta: missing attribute %S" name)

let child_text node name =
  match Txq_xml.Xml.find_child node name with
  | Some child -> Some (Txq_xml.Xml.text_content child)
  | None -> None

let single_tree node =
  match Txq_xml.Xml.child_elements node with
  | [child] -> tree_of_xml child
  | _ -> Error "delta: expected exactly one embedded tree"

let op_of_xml node =
  match Txq_xml.Xml.tag node with
  | Some "insert" ->
    let* parent = required_xid node "parent" in
    let* after = optional_xid node "after" in
    let* tree = single_tree node in
    Ok (Insert { parent; after; tree })
  | Some "delete" ->
    let* parent = required_xid node "parent" in
    let* after = optional_xid node "after" in
    let* tree = single_tree node in
    Ok (Delete { parent; after; tree })
  | Some "update" ->
    let* xid = required_xid node "xid" in
    let old_text = Option.value ~default:"" (child_text node "old") in
    let new_text = Option.value ~default:"" (child_text node "new") in
    Ok (Update { xid; old_text; new_text })
  | Some "rename" ->
    let* xid = required_xid node "xid" in
    let* old_tag = required_attr node "old" in
    let* new_tag = required_attr node "new" in
    Ok (Rename { xid; old_tag; new_tag })
  | Some "setattr" ->
    let* xid = required_xid node "xid" in
    let* name = required_attr node "name" in
    Ok
      (Set_attr
         {
           xid;
           name;
           old_value = child_text node "old";
           new_value = child_text node "new";
         })
  | Some "move" ->
    let* xid = required_xid node "xid" in
    let* old_parent = required_xid node "oldparent" in
    let* old_after = optional_xid node "oldafter" in
    let* new_parent = required_xid node "newparent" in
    let* new_after = optional_xid node "newafter" in
    Ok (Move { xid; old_parent; old_after; new_parent; new_after })
  | Some other -> Error (Printf.sprintf "delta: unknown operation <%s>" other)
  | None -> Error "delta: text where an operation was expected"

let of_xml node =
  match Txq_xml.Xml.tag node with
  | Some "delta" ->
    let version name =
      match Txq_xml.Xml.attr node name with
      | Some s -> (
        match int_of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "delta: malformed version %S" s))
      | None -> Error (Printf.sprintf "delta: missing attribute %S" name)
    in
    let* from_version = version "from" in
    let* to_version = version "to" in
    let* ops = map_result op_of_xml (Txq_xml.Xml.child_elements node) in
    Ok { from_version; to_version; ops }
  | _ -> Error "delta: root element must be <delta>"

let encode t = Txq_xml.Print.to_string (to_xml t)

let decode s =
  match Txq_xml.Parse.parse ~keep_whitespace:true s with
  | Error e -> Error (Txq_xml.Parse.error_to_string e)
  | Ok xml -> of_xml xml

let decode_exn s =
  match decode s with
  | Ok t -> t
  | Error msg -> failwith msg

let pp ppf t =
  Format.fprintf ppf "delta v%d->v%d (%d ops)" t.from_version t.to_version
    (op_count t)
