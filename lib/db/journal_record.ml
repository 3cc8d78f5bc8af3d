type blob_ref = { br_pages : int list; br_length : int }

type t =
  | Insert of {
      r_doc : int;
      r_url : string;
      r_ts : int;
      r_current : blob_ref;
      r_snapshot : blob_ref option;
    }
  | Commit of {
      r_doc : int;
      r_version : int;
      r_ts : int;
      r_delta : blob_ref;
      r_current : blob_ref;
      r_snapshot : blob_ref option;
    }
  | Delete of { r_doc : int; r_ts : int }
  | Vacuum of { r_ts : int; r_docs : vacuum_doc list }

and vacuum_doc = {
  vd_doc : int;
  vd_base : int;
  vd_drop : bool;
  vd_snapshot : blob_ref option;
  vd_xid_watermark : int;
}

(* Fixed-width binary encoding: a tag byte, every integer as a big-endian
   int64 (timestamps may be negative), strings and lists length-prefixed. *)

let add_int buf n = Buffer.add_int64_be buf (Int64.of_int n)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_int_list buf l =
  add_int buf (List.length l);
  List.iter (add_int buf) l

let add_opt add buf = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
    Buffer.add_char buf '\001';
    add buf v

let add_blob_ref buf { br_pages; br_length } =
  add_int_list buf br_pages;
  add_int buf br_length

let encode r =
  let buf = Buffer.create 128 in
  (match r with
   | Insert { r_doc; r_url; r_ts; r_current; r_snapshot } ->
     Buffer.add_char buf 'I';
     add_int buf r_doc;
     add_string buf r_url;
     add_int buf r_ts;
     add_blob_ref buf r_current;
     add_opt add_blob_ref buf r_snapshot
   | Commit { r_doc; r_version; r_ts; r_delta; r_current; r_snapshot } ->
     Buffer.add_char buf 'C';
     add_int buf r_doc;
     add_int buf r_version;
     add_int buf r_ts;
     add_blob_ref buf r_delta;
     add_blob_ref buf r_current;
     add_opt add_blob_ref buf r_snapshot
   | Delete { r_doc; r_ts } ->
     Buffer.add_char buf 'D';
     add_int buf r_doc;
     add_int buf r_ts
   | Vacuum { r_ts; r_docs } ->
     Buffer.add_char buf 'V';
     add_int buf r_ts;
     add_int buf (List.length r_docs);
     List.iter
       (fun { vd_doc; vd_base; vd_drop; vd_snapshot; vd_xid_watermark } ->
         add_int buf vd_doc;
         add_int buf vd_base;
         Buffer.add_char buf (if vd_drop then '\001' else '\000');
         add_opt add_blob_ref buf vd_snapshot;
         add_int buf vd_xid_watermark)
       r_docs);
  Buffer.contents buf

exception Bad of string

let decode s =
  let pos = ref 0 in
  let need n what =
    if !pos + n > String.length s then
      raise (Bad (Printf.sprintf "truncated %s at byte %d" what !pos))
  in
  let get_char what =
    need 1 what;
    let c = s.[!pos] in
    incr pos;
    c
  in
  let get_int what =
    need 8 what;
    let n = Int64.to_int (String.get_int64_be s !pos) in
    pos := !pos + 8;
    n
  in
  let get_len what =
    let n = get_int what in
    if n < 0 || n > String.length s - !pos then
      raise (Bad (Printf.sprintf "bad %s length %d" what n));
    n
  in
  let get_string what =
    let n = get_len what in
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let get_int_list what =
    let n = get_len what in
    List.init n (fun _ -> get_int what)
  in
  let get_opt get what =
    match get_char what with
    | '\000' -> None
    | '\001' -> Some (get what)
    | c -> raise (Bad (Printf.sprintf "bad %s option tag %C" what c))
  in
  let get_blob_ref what =
    let br_pages = get_int_list (what ^ " pages") in
    let br_length = get_int (what ^ " length") in
    if br_pages = [] then raise (Bad (what ^ ": blob with no pages"));
    if br_length < 0 then raise (Bad (what ^ ": negative blob length"));
    { br_pages; br_length }
  in
  match
    let r =
      match get_char "tag" with
      | 'I' ->
        let r_doc = get_int "doc" in
        let r_url = get_string "url" in
        let r_ts = get_int "ts" in
        let r_current = get_blob_ref "current" in
        let r_snapshot = get_opt get_blob_ref "snapshot" in
        Insert { r_doc; r_url; r_ts; r_current; r_snapshot }
      | 'C' ->
        let r_doc = get_int "doc" in
        let r_version = get_int "version" in
        let r_ts = get_int "ts" in
        let r_delta = get_blob_ref "delta" in
        let r_current = get_blob_ref "current" in
        let r_snapshot = get_opt get_blob_ref "snapshot" in
        Commit { r_doc; r_version; r_ts; r_delta; r_current; r_snapshot }
      | 'D' ->
        let r_doc = get_int "doc" in
        let r_ts = get_int "ts" in
        Delete { r_doc; r_ts }
      | 'V' ->
        let r_ts = get_int "ts" in
        let n = get_len "vacuum docs" in
        let r_docs =
          List.init n (fun _ ->
              let vd_doc = get_int "vacuum doc" in
              let vd_base = get_int "vacuum base" in
              let vd_drop =
                match get_char "vacuum drop" with
                | '\000' -> false
                | '\001' -> true
                | c -> raise (Bad (Printf.sprintf "bad vacuum drop flag %C" c))
              in
              let vd_snapshot = get_opt get_blob_ref "vacuum snapshot" in
              let vd_xid_watermark = get_int "vacuum xid watermark" in
              if vd_base < 0 then
                raise (Bad (Printf.sprintf "negative vacuum base %d" vd_base));
              { vd_doc; vd_base; vd_drop; vd_snapshot; vd_xid_watermark })
        in
        Vacuum { r_ts; r_docs }
      | c -> raise (Bad (Printf.sprintf "unknown record tag %C" c))
    in
    if !pos <> String.length s then
      raise (Bad (Printf.sprintf "%d trailing bytes" (String.length s - !pos)));
    r
  with
  | r -> Ok r
  | exception Bad msg -> Error ("Journal_record.decode: " ^ msg)

let decode_exn s =
  match decode s with Ok r -> r | Error msg -> failwith msg

let content_slots = function
  | Insert _ -> 1 (* the version-0 tree, [Codec]-encoded *)
  | Commit _ -> 1 (* the delta v-1 → v, [Delta]-encoded *)
  | Delete _ | Vacuum _ -> 0

type shipment = {
  sh_index : int;
  sh_payload : string;
  sh_contents : string list;
}

let encode_shipment { sh_index; sh_payload; sh_contents } =
  let buf = Buffer.create (128 + String.length sh_payload) in
  add_int buf sh_index;
  add_string buf sh_payload;
  add_int buf (List.length sh_contents);
  List.iter (add_string buf) sh_contents;
  Buffer.contents buf

let decode_shipment s =
  let pos = ref 0 in
  let need n what =
    if !pos + n > String.length s then
      raise (Bad (Printf.sprintf "truncated %s at byte %d" what !pos))
  in
  let get_int what =
    need 8 what;
    let n = Int64.to_int (String.get_int64_be s !pos) in
    pos := !pos + 8;
    n
  in
  let get_len what =
    let n = get_int what in
    if n < 0 || n > String.length s - !pos then
      raise (Bad (Printf.sprintf "bad %s length %d" what n));
    n
  in
  let get_string what =
    let n = get_len what in
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  match
    let sh_index = get_int "index" in
    if sh_index < 0 then
      raise (Bad (Printf.sprintf "negative shipment index %d" sh_index));
    let sh_payload = get_string "payload" in
    let n = get_len "contents" in
    let sh_contents = List.init n (fun _ -> get_string "content") in
    if !pos <> String.length s then
      raise (Bad (Printf.sprintf "%d trailing bytes" (String.length s - !pos)));
    { sh_index; sh_payload; sh_contents }
  with
  | sh -> Ok sh
  | exception Bad msg -> Error ("Journal_record.decode_shipment: " ^ msg)

let equal (a : t) (b : t) = a = b

let pp_blob_ref ppf { br_pages; br_length } =
  Format.fprintf ppf "{pages=[%s]; len=%d}"
    (String.concat "," (List.map string_of_int br_pages))
    br_length

let pp_opt pp ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some v -> pp ppf v

let pp ppf = function
  | Insert { r_doc; r_url; r_ts; r_current; r_snapshot } ->
    Format.fprintf ppf "Insert(doc=%d url=%S ts=%d cur=%a snap=%a)"
      r_doc r_url r_ts pp_blob_ref r_current (pp_opt pp_blob_ref) r_snapshot
  | Commit { r_doc; r_version; r_ts; r_delta; r_current; r_snapshot } ->
    Format.fprintf ppf "Commit(doc=%d v=%d ts=%d delta=%a cur=%a snap=%a)"
      r_doc r_version r_ts
      pp_blob_ref r_delta pp_blob_ref r_current
      (pp_opt pp_blob_ref) r_snapshot
  | Delete { r_doc; r_ts } -> Format.fprintf ppf "Delete(doc=%d ts=%d)" r_doc r_ts
  | Vacuum { r_ts; r_docs } ->
    Format.fprintf ppf "Vacuum(ts=%d docs=[%s])" r_ts
      (String.concat ";"
         (List.map
            (fun vd ->
              Format.asprintf "doc=%d%s base=%d snap=%a xid=%d"
                vd.vd_doc
                (if vd.vd_drop then " drop" else "")
                vd.vd_base
                (pp_opt pp_blob_ref) vd.vd_snapshot
                vd.vd_xid_watermark)
            r_docs))
