module Vnode = Txq_vxml.Vnode
module Delta = Txq_vxml.Delta

type change_kind =
  | Inserted
  | Deleted
  | Updated
  | Renamed
  | Moved

let change_kind_to_string = function
  | Inserted -> "insert"
  | Deleted -> "delete"
  | Updated -> "update"
  | Renamed -> "rename"
  | Moved -> "move"

type entry = {
  ch_doc : Txq_vxml.Eid.doc_id;
  ch_version : int;
  ch_kind : change_kind;
  ch_word : string;
  ch_xid : Txq_vxml.Xid.t;
}

type t = {
  words : (string, entry list ref) Hashtbl.t;
  mutable entries : int;
}

let create () = { words = Hashtbl.create 1024; entries = 0 }

let add t entry =
  let bucket =
    match Hashtbl.find_opt t.words entry.ch_word with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.replace t.words entry.ch_word b;
      b
  in
  bucket := entry :: !bucket;
  t.entries <- t.entries + 1

let add_tree_words t ~doc ~version ~kind tree =
  let root = Vnode.xid tree in
  Vnode.iter_occurrences
    (fun ch_word _ path ->
      let ch_xid =
        match Txq_vxml.Xidpath.leaf path with Some xid -> xid | None -> root
      in
      add t { ch_doc = doc; ch_version = version; ch_kind = kind; ch_word; ch_xid })
    tree

let index_op t ~doc ~version = function
  | Delta.Insert { tree; _ } -> add_tree_words t ~doc ~version ~kind:Inserted tree
  | Delta.Delete { tree; _ } -> add_tree_words t ~doc ~version ~kind:Deleted tree
  | Delta.Update { xid; old_text; new_text } ->
    List.iter
      (fun w ->
        add t { ch_doc = doc; ch_version = version; ch_kind = Deleted;
                ch_word = w; ch_xid = xid })
      (Txq_xml.Xml.split_words old_text);
    List.iter
      (fun w ->
        add t { ch_doc = doc; ch_version = version; ch_kind = Updated;
                ch_word = w; ch_xid = xid })
      (Txq_xml.Xml.split_words new_text)
  | Delta.Rename { xid; old_tag; new_tag } ->
    add t { ch_doc = doc; ch_version = version; ch_kind = Deleted;
            ch_word = old_tag; ch_xid = xid };
    add t { ch_doc = doc; ch_version = version; ch_kind = Renamed;
            ch_word = new_tag; ch_xid = xid }
  | Delta.Set_attr { xid; name; old_value; new_value } ->
    let record kind = function
      | None -> ()
      | Some v ->
        List.iter
          (fun w ->
            add t { ch_doc = doc; ch_version = version; ch_kind = kind;
                    ch_word = w; ch_xid = xid })
          (name :: Txq_xml.Xml.split_words v)
    in
    record Deleted old_value;
    record Updated new_value
  | Delta.Move { xid; _ } ->
    add t { ch_doc = doc; ch_version = version; ch_kind = Moved;
            ch_word = "_node"; ch_xid = xid }

let index_delta t ~doc ~version delta =
  List.iter (index_op t ~doc ~version) delta.Delta.ops

let index_initial t ~doc ?(version = 0) vnode =
  add_tree_words t ~doc ~version ~kind:Inserted vnode

(* Prune after a retention vacuum, mirroring what a rebuild of the
   truncated delta chains would index: entries at or below a squashed
   document's new base are dropped (the delta {e into} the base is gone
   too), then the base tree's occurrences are re-registered as [Inserted]
   at the base version.  The fresh base entries are appended at the old end
   of each bucket so [changes] stays oldest-first. *)
let vacuum t ~affected =
  let actions = Hashtbl.create 16 in
  List.iter (fun (doc, action) -> Hashtbl.replace actions doc action) affected;
  let keep e =
    match Hashtbl.find_opt actions e.ch_doc with
    | None -> true
    | Some `Drop -> false
    | Some (`Squash (base, _)) -> e.ch_version > base
  in
  let removed = ref 0 in
  Hashtbl.filter_map_inplace
    (fun _ bucket ->
      let kept = List.filter keep !bucket in
      removed := !removed + (List.length !bucket - List.length kept);
      if kept = [] then None
      else begin
        bucket := kept;
        Some bucket
      end)
    t.words;
  t.entries <- t.entries - !removed;
  let added = ref 0 in
  List.iter
    (fun (doc, action) ->
      match action with
      | `Drop -> ()
      | `Squash (base, tree) ->
        let fresh = create () in
        add_tree_words fresh ~doc ~version:base ~kind:Inserted tree;
        added := !added + fresh.entries;
        t.entries <- t.entries + fresh.entries;
        Hashtbl.iter
          (fun word fresh_bucket ->
            match Hashtbl.find_opt t.words word with
            | Some bucket -> bucket := !bucket @ !fresh_bucket
            | None -> Hashtbl.replace t.words word fresh_bucket)
          fresh.words)
    affected;
  (!removed, !added)

let delete_document t ~doc ~version vnode =
  add_tree_words t ~doc ~version ~kind:Deleted vnode

let changes t word =
  let plain () =
    match Hashtbl.find_opt t.words word with
    | Some bucket -> List.rev !bucket
    | None -> []
  in
  if not (Txq_obs.Trace.enabled ()) then plain ()
  else
    Txq_obs.Trace.with_span "dfti.changes"
      ~attrs:[ ("word", Txq_obs.Span.Str word) ]
      (fun () ->
        let r = plain () in
        Txq_obs.Trace.add_count "entries" (List.length r);
        r)

let changes_of_kind t word kind =
  List.filter (fun e -> e.ch_kind = kind) (changes t word)

let deletions_in_doc t word ~doc =
  List.filter (fun e -> e.ch_kind = Deleted && e.ch_doc = doc) (changes t word)

let entry_count t = t.entries
let word_count t = Hashtbl.length t.words

let word_entry_count t word =
  match Hashtbl.find_opt t.words word with
  | None -> 0
  | Some b -> List.length !b
