type request =
  | Ping
  | Query of string
  | Explain of string
  | Analyze of string
  | Insert of string * string
  | Update of string * string
  | Delete of string
  | Metrics
  | Stats
  | Ship of { from : int; max : int }

type response =
  | Done of { rows : int; watermark : int; ts : int }
  | Chunk of string
  | Error of int * string
  | Pong
  | Shipment of string

type error_code =
  | E_parse
  | E_unknown_variable
  | E_unsupported
  | E_internal
  | E_bad_frame
  | E_conflict
  | E_shutting_down
  | E_too_large
  | E_ship_gap

let error_code_to_int = function
  | E_parse -> 1
  | E_unknown_variable -> 2
  | E_unsupported -> 3
  | E_internal -> 4
  | E_bad_frame -> 5
  | E_conflict -> 6
  | E_shutting_down -> 7
  | E_too_large -> 8
  | E_ship_gap -> 9

let default_max_frame = 4 * 1024 * 1024

(* --- request encoding ---------------------------------------------------- *)

let op_ping = 0x00
let op_query = 0x01
let op_explain = 0x02
let op_analyze = 0x03
let op_insert = 0x10
let op_update = 0x11
let op_delete = 0x12
let op_metrics = 0x20
let op_stats = 0x21
let op_ship = 0x30
let op_done = 0x80
let op_chunk = 0x81
let op_error = 0x82
let op_pong = 0x83
let op_shipment = 0x84

(* url ++ document, with a u16 BE url-length prefix *)
let encode_url_doc url doc =
  let ul = String.length url in
  if ul > 0xffff then invalid_arg "Protocol: url longer than 65535 bytes";
  let b = Buffer.create (2 + ul + String.length doc) in
  Buffer.add_uint16_be b ul;
  Buffer.add_string b url;
  Buffer.add_string b doc;
  Buffer.contents b

let decode_url_doc body =
  if String.length body < 2 then Stdlib.Error "truncated url length"
  else begin
    let ul = String.get_uint16_be body 0 in
    if String.length body < 2 + ul then Stdlib.Error "truncated url"
    else
      Ok
        ( String.sub body 2 ul,
          String.sub body (2 + ul) (String.length body - 2 - ul) )
  end

let encode_request = function
  | Ping -> (op_ping, "")
  | Query s -> (op_query, s)
  | Explain s -> (op_explain, s)
  | Analyze s -> (op_analyze, s)
  | Insert (url, doc) -> (op_insert, encode_url_doc url doc)
  | Update (url, doc) -> (op_update, encode_url_doc url doc)
  | Delete url -> (op_delete, url)
  | Metrics -> (op_metrics, "")
  | Stats -> (op_stats, "")
  | Ship { from; max } ->
    let b = Buffer.create 12 in
    Buffer.add_int64_be b (Int64.of_int from);
    Buffer.add_int32_be b (Int32.of_int max);
    (op_ship, Buffer.contents b)

let decode_request opcode body =
  match opcode with
  | op when op = op_ping -> Ok Ping
  | op when op = op_query -> Ok (Query body)
  | op when op = op_explain -> Ok (Explain body)
  | op when op = op_analyze -> Ok (Analyze body)
  | op when op = op_insert ->
    Result.map (fun (u, d) -> Insert (u, d)) (decode_url_doc body)
  | op when op = op_update ->
    Result.map (fun (u, d) -> Update (u, d)) (decode_url_doc body)
  | op when op = op_delete -> Ok (Delete body)
  | op when op = op_metrics -> Ok Metrics
  | op when op = op_stats -> Ok Stats
  | op when op = op_ship ->
    if String.length body <> 12 then
      Stdlib.Error "SHIP frame body must be 12 bytes"
    else begin
      let from = Int64.to_int (String.get_int64_be body 0) in
      let max = Int32.to_int (String.get_int32_be body 8) in
      if from < 0 || max < 0 then Stdlib.Error "negative SHIP field"
      else Ok (Ship { from; max })
    end
  | op -> Stdlib.Error (Printf.sprintf "unknown request opcode 0x%02x" op)

let encode_response = function
  | Pong -> (op_pong, "")
  | Chunk s -> (op_chunk, s)
  | Shipment s -> (op_shipment, s)
  | Error (code, msg) ->
    let b = Buffer.create (1 + String.length msg) in
    Buffer.add_uint8 b (code land 0xff);
    Buffer.add_string b msg;
    (op_error, Buffer.contents b)
  | Done { rows; watermark; ts } ->
    let b = Buffer.create 24 in
    Buffer.add_int64_be b (Int64.of_int rows);
    Buffer.add_int64_be b (Int64.of_int watermark);
    Buffer.add_int64_be b (Int64.of_int ts);
    (op_done, Buffer.contents b)

let decode_response opcode body =
  match opcode with
  | op when op = op_pong -> Ok Pong
  | op when op = op_chunk -> Ok (Chunk body)
  | op when op = op_shipment -> Ok (Shipment body)
  | op when op = op_error ->
    if String.length body < 1 then Stdlib.Error "truncated error frame"
    else
      Ok
        (Error
           ( Char.code body.[0],
             String.sub body 1 (String.length body - 1) ))
  | op when op = op_done ->
    if String.length body <> 24 then Stdlib.Error "DONE frame must be 24 bytes"
    else
      Ok
        (Done
           {
             rows = Int64.to_int (String.get_int64_be body 0);
             watermark = Int64.to_int (String.get_int64_be body 8);
             ts = Int64.to_int (String.get_int64_be body 16);
           })
  | op -> Stdlib.Error (Printf.sprintf "unknown response opcode 0x%02x" op)

(* --- frame I/O ----------------------------------------------------------- *)

let rec really_write fd buf off len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd buf (off + n) (len - n)
  end

let write_frame fd opcode body =
  let len = 1 + String.length body in
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.set_uint8 b 4 opcode;
  Bytes.blit_string body 0 b 5 (String.length body);
  really_write fd b 0 (Bytes.length b)

(* Reads exactly [len] bytes.  With [idle_timeout], a receive timeout
   before the first byte surfaces as [`Timeout] (so a serving loop can
   poll its shutdown flag between frames); once a read has started, or
   without the flag, timeouts keep waiting — a receive timeout never
   tears a frame in half. *)
let really_read ?(idle_timeout = false) fd buf len =
  let rec go off =
    if off >= len then `Ok
    else begin
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if idle_timeout && off = 0 then `Timeout else go off
    end
  in
  go 0

let read_frame ~max_frame fd =
  let hdr = Bytes.create 4 in
  match really_read ~idle_timeout:true fd hdr 4 with
  | `Eof 0 -> `Eof
  | `Eof _ -> `Eof (* peer died mid-header: nothing recoverable either way *)
  | `Timeout -> `Timeout
  | `Ok ->
    let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
    if len < 1 || len > max_frame then `Too_large len
    else begin
      let b = Bytes.create len in
      match really_read fd b len with
      | `Eof _ | `Timeout -> `Eof
      | `Ok ->
        (`Frame (Bytes.get_uint8 b 0, Bytes.sub_string b 1 (len - 1)))
    end

let write_request fd r =
  let opcode, body = encode_request r in
  write_frame fd opcode body

let http_preamble s = String.length s >= 4 && String.equal (String.sub s 0 4) "GET "
