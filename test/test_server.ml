(* txmldbd end to end: the wire protocol in isolation, the server over
   real sockets, and the multi-client differential soak.

   The soak is the centrepiece: N clients issue deterministic mixed
   read/write streams concurrently; every write reply carries its exact
   commit timestamp and every read reply the snapshot watermark it ran
   at, so afterwards the whole interleaving can be replayed serially
   against a fresh oracle database and each concurrent read compared
   byte for byte with the oracle at its watermark.  The remaining cases
   are the ways clients misbehave: malformed frames, mutated statements,
   a connection killed mid-stream, and shutdown under load — none may
   kill the daemon or leak a snapshot pin. *)

module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Timestamp = Txq_temporal.Timestamp
module Db = Txq_db.Db
module Exec = Txq_query.Exec
module Load = Txq_workload.Load
module Mixed = Txq_workload.Mixed
module P = Txq_server.Protocol
module Server = Txq_server.Server
module Client = Txq_server.Client
module Loadgen = Txq_server.Loadgen

let small_spec = { Load.default_spec with Load.documents = 4; versions = 4 }

let with_server ?(config = Server.default_config) db f =
  let server = Server.start ~config db in
  Fun.protect
    ~finally:(fun () -> ignore (Server.stop server))
    (fun () -> f server (Server.port server))

let request_of_op = function
  | Mixed.Query stmt -> P.Query stmt
  | Mixed.Insert (url, xml) -> P.Insert (url, Print.to_string xml)
  | Mixed.Update (url, xml) -> P.Update (url, Print.to_string xml)
  | Mixed.Delete url -> P.Delete url

(* --- protocol framing ------------------------------------------------------ *)

let roundtrip_request req =
  let opcode, body = P.encode_request req in
  match P.decode_request opcode body with
  | Ok req' -> Alcotest.(check bool) "request survives" true (req = req')
  | Error e -> Alcotest.failf "decode failed: %s" e

let roundtrip_response resp =
  let opcode, body = P.encode_response resp in
  match P.decode_response opcode body with
  | Ok resp' -> Alcotest.(check bool) "response survives" true (resp = resp')
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_codec_roundtrips () =
  List.iter roundtrip_request
    [
      P.Ping;
      P.Query "SELECT R FROM doc(\"a\")//r R";
      P.Explain "";
      P.Analyze "COUNT(collection(\"*\"))";
      P.Insert ("guide.com/x.xml", "<a>body</a>");
      P.Update ("", "<a/>");
      P.Delete "guide.com/x.xml";
      P.Metrics;
      P.Stats;
    ];
  List.iter roundtrip_response
    [
      P.Done { rows = 0; watermark = 0; ts = 0 };
      P.Done { rows = max_int; watermark = 123456; ts = -1 };
      P.Chunk "";
      P.Chunk (String.make 9000 'x');
      P.Error (P.error_code_to_int P.E_parse, "expected an expression");
      P.Pong;
    ]

let test_frame_io () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
  @@ fun () ->
  P.write_request a (P.Query "SELECT");
  (match P.read_frame ~max_frame:P.default_max_frame b with
   | `Frame (opcode, body) ->
     Alcotest.(check bool) "decodes to the request" true
       (P.decode_request opcode body = Ok (P.Query "SELECT"))
   | _ -> Alcotest.fail "expected a frame");
  (* an announced length over the limit is surfaced, not allocated *)
  let huge = Bytes.create 4 in
  Bytes.set_uint16_be huge 0 0xFFFF;
  Bytes.set_uint16_be huge 2 0xFFFF;
  ignore (Unix.write a huge 0 4);
  (match P.read_frame ~max_frame:4096 b with
   | `Too_large n ->
     (* 0xFFFFFFFF wraps negative through Int32: out of range either way *)
     Alcotest.(check bool) "reports an out-of-range length" true
       (n > 4096 || n < 1)
   | _ -> Alcotest.fail "expected `Too_large");
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  match P.read_frame ~max_frame:4096 b with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected `Eof after close"

let test_http_preamble () =
  Alcotest.(check bool) "GET" true (P.http_preamble "GET ");
  Alcotest.(check bool) "binary" false (P.http_preamble "\x00\x00\x00\x05");
  Alcotest.(check bool) "short" false (P.http_preamble "GE")

(* --- server basics over the wire ------------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_query_over_wire () =
  let db = Load.load_db small_spec in
  with_server db @@ fun _server port ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check bool) "ping" true (Client.ping c);
  let stmt = "SELECT R/name FROM doc(\"" ^ Load.url_of 0 ^ "\")//restaurant R" in
  (match Client.query c stmt with
   | Ok reply ->
     let want =
       match Exec.run_string db stmt with
       | Ok xml -> Print.to_string xml
       | Error e -> Alcotest.failf "oracle failed: %s" (Exec.error_to_string e)
     in
     Alcotest.(check string) "body matches direct execution" want
       reply.Client.body
   | Error (code, msg) -> Alcotest.failf "query failed (%d): %s" code msg);
  (* a parse error comes back as a typed error frame, not a dead socket *)
  (match Client.query c "SELECT" with
   | Error (code, _) ->
     Alcotest.(check int) "parse error code"
       (P.error_code_to_int P.E_parse) code
   | Ok _ -> Alcotest.fail "expected a parse error");
  (* an unknown variable is refused even when no row binds *)
  (match Client.query c "SELECT X FROM doc(\"no.such\")/guide/restaurant R" with
   | Error (code, _) ->
     Alcotest.(check int) "unknown variable code"
       (P.error_code_to_int P.E_unknown_variable) code
   | Ok reply -> Alcotest.failf "expected an unknown-variable error, got %s" reply.Client.body);
  (* and the connection is still usable afterwards *)
  Alcotest.(check bool) "ping after error" true (Client.ping c);
  match Client.metrics c with
  | Ok reply ->
    Alcotest.(check bool) "metrics count connections" true
      (contains reply.Client.body "server.connections_total");
    (* this very connection is live: its counters must appear *)
    Alcotest.(check bool) "metrics list live connections" true
      (contains reply.Client.body "conn.")
  | Error (code, msg) -> Alcotest.failf "metrics failed (%d): %s" code msg

(* CREATE/DELETE TIME over the wire run on the request's snapshot; they
   must answer like the live handle in process, after an update removed
   an element.  The chain is longer than the planner's traverse cutoff, so
   both handles look the lifetimes up in the CreTime index. *)
let test_served_lifetimes () =
  let db = Load.load_db small_spec in
  let url = "served-lifetimes.xml" in
  let guide names price =
    Parse.parse_exn
      (Printf.sprintf "<guide>%s</guide>"
         (String.concat ""
            (List.map
               (fun n ->
                 Printf.sprintf
                   "<restaurant><name>%s</name><price>%d</price></restaurant>" n
                   price)
               names)))
  in
  ignore (Db.insert_document db ~url (guide [ "napoli"; "akropolis" ] 10));
  for price = 11 to 16 do
    ignore (Db.update_document db ~url (guide [ "napoli" ] price))
  done;
  let stmt =
    Printf.sprintf
      "SELECT CREATE TIME(R), DELETE TIME(R) FROM doc(%S)[EVERY]//restaurant R"
      url
  in
  let want =
    match Exec.run_string db stmt with
    | Ok xml -> Print.to_string xml
    | Error e -> Alcotest.failf "in process: %s" (Exec.error_to_string e)
  in
  Alcotest.(check bool) "the removed element has a delete time" true
    (contains want "</time><time>");
  with_server db @@ fun _server port ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.query c stmt with
  | Ok reply ->
    Alcotest.(check string) "served = in process" want reply.Client.body
  | Error (code, msg) -> Alcotest.failf "query failed (%d): %s" code msg

let test_streaming_matches_eager () =
  (* tiny chunks force many Chunk frames; reassembly must be byte-identical *)
  let db = Load.load_db small_spec in
  let config = { Server.default_config with Server.chunk_bytes = 64 } in
  with_server ~config db @@ fun _server port ->
  let c = Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let stmts =
    [
      "SELECT R FROM collection(\"*\")//restaurant R";
      "SELECT TIME(R), R/price FROM collection(\"*\")[EVERY]//restaurant R";
      "SELECT COUNT(R) FROM collection(\"*\")//restaurant R";
      "SELECT R FROM doc(\"no.such.doc\")//restaurant R";
      "SELECT R/name, S/name FROM doc(\"guide.example.org/city-0.xml\")//restaurant R, \
       doc(\"guide.example.org/city-1.xml\")//restaurant S WHERE R/rating = S/rating";
      "SELECT TIME(R), S/price FROM doc(\"guide.example.org/city-0.xml\")[EVERY]//restaurant R, \
       collection(\"*\")//restaurant S WHERE R/name = S/name";
      "SELECT DISTINCT R/rating FROM collection(\"*\")[EVERY]//restaurant R";
      "SELECT SUM(R/price), AVG(R/price) FROM collection(\"*\")[EVERY]//restaurant R \
       WHERE R/rating > 2";
      "collection(\"*\")//restaurant/name = \"Napoli\" UNION \
       doc(\"guide.example.org/city-1.xml\")//restaurant/price";
      "SELECT R, S FROM doc(\"no.such.doc\")//restaurant R, collection(\"*\")//restaurant S";
    ]
  in
  List.iter
    (fun stmt ->
      let buf = Buffer.create 256 in
      let chunks = ref 0 in
      let on_chunk s = incr chunks; Buffer.add_string buf s in
      match Client.request ~on_chunk c (P.Query stmt) with
      | Error (code, msg) -> Alcotest.failf "%s failed (%d): %s" stmt code msg
      | Ok _ ->
        let want =
          match Exec.run_string db stmt with
          | Ok xml -> Print.to_string xml
          | Error e ->
            Alcotest.failf "oracle failed: %s" (Exec.error_to_string e)
        in
        Alcotest.(check string) stmt want (Buffer.contents buf);
        if String.length want > 3 * 64 then
          Alcotest.(check bool)
            (stmt ^ ": large result arrived in multiple chunks") true
            (!chunks > 1))
    stmts

let test_http_endpoints () =
  let db = Load.load_db small_spec in
  with_server db @@ fun _server port ->
  let http path =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    let req = "GET " ^ path ^ " HTTP/1.1\r\nHost: localhost\r\n\r\n" in
    ignore (Unix.write_substring fd req 0 (String.length req));
    let buf = Buffer.create 512 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd chunk 0 4096 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
    in
    drain ();
    Buffer.contents buf
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "metrics 200" true
    (starts_with "HTTP/1.1 200" (http "/metrics"));
  Alcotest.(check bool) "stats 200" true
    (starts_with "HTTP/1.1 200" (http "/stats"));
  Alcotest.(check bool) "unknown path 404" true
    (starts_with "HTTP/1.1 404" (http "/nope"))

(* --- hostile input --------------------------------------------------------- *)

let test_garbage_frames () =
  let db = Load.load_db small_spec in
  with_server db @@ fun _server port ->
  (* unknown opcode: typed error, connection survives *)
  let c = Client.connect ~port () in
  P.write_frame (Client.fd c) 0x7F "junk";
  (match P.read_frame ~max_frame:P.default_max_frame (Client.fd c) with
   | `Frame (opcode, body) -> (
     match P.decode_response opcode body with
     | Ok (P.Error (code, _)) ->
       Alcotest.(check int) "bad frame code"
         (P.error_code_to_int P.E_bad_frame) code
     | other ->
       Alcotest.failf "expected an error frame, got %s"
         (match other with Ok _ -> "another response" | Error e -> e))
   | _ -> Alcotest.fail "expected a frame");
  Alcotest.(check bool) "connection survives junk opcode" true (Client.ping c);
  (* truncated body for a structured request: typed error, survives *)
  P.write_frame (Client.fd c) 0x10 "\xFF\xFF";
  (match Client.request c P.Ping with
   | Error (code, _) ->
     Alcotest.(check int) "malformed body code"
       (P.error_code_to_int P.E_bad_frame) code
   | Ok _ -> Alcotest.fail "expected an error for the malformed insert");
  Alcotest.(check bool) "still alive" true (Client.ping c);
  Client.close c;
  (* hostile length prefix: error frame, then the connection is dropped *)
  let c = Client.connect ~port () in
  let huge = Bytes.make 4 '\xEE' in
  ignore (Unix.write (Client.fd c) huge 0 4);
  (match P.read_frame ~max_frame:P.default_max_frame (Client.fd c) with
   | `Frame (opcode, body) -> (
     match P.decode_response opcode body with
     | Ok (P.Error (code, _)) ->
       Alcotest.(check int) "too large code"
         (P.error_code_to_int P.E_too_large) code
     | _ -> Alcotest.fail "expected an error frame")
   | `Eof -> () (* also acceptable: dropped without a reply *)
   | _ -> Alcotest.fail "expected an error frame or eof");
  (match P.read_frame ~max_frame:P.default_max_frame (Client.fd c) with
   | `Eof -> ()
   | _ -> Alcotest.fail "desynced connection must be dropped");
  Client.close c;
  (* raw byte noise on fresh connections must never take the server down *)
  let rng = Random.State.make [| 0xBAD5EED |] in
  for _ = 1 to 40 do
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    let n = Random.State.int rng 64 in
    let noise =
      Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256))
    in
    (try ignore (Unix.write fd noise 0 n)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())
  done;
  let c = Client.connect ~port () in
  Alcotest.(check bool) "server survives byte noise" true (Client.ping c);
  Client.close c

(* Statement mutation corpus: valid statements, then random byte surgery. *)
let statement_corpus =
  let g = Mixed.create ~spec:small_spec ~client:0 ~seed:11 () in
  let rec queries n acc =
    if n = 0 then acc
    else
      match Mixed.next_op g with
      | Mixed.Query s -> queries (n - 1) (s :: acc)
      | _ -> queries n acc
  in
  queries 12
    [
      "SELECT R FROM doc(\"guide.com/doc-0.xml\")[26/01/2001]//restaurant R";
      "SELECT TIME(R), R FROM collection(\"*\")[EVERY]//restaurant R \
       WHERE R/price < 20";
      "COUNT(collection(\"*\")//restaurant) BY DOC";
      "(doc(\"a\")//r = \"x\") UNION (doc(\"b\")//r = \"y\")";
    ]

let mutate rng s =
  let n = String.length s in
  match Random.State.int rng 5 with
  | 0 when n > 0 ->
    (* flip one byte *)
    let i = Random.State.int rng n in
    String.mapi
      (fun j c -> if j = i then Char.chr (Random.State.int rng 256) else c)
      s
  | 1 when n > 1 ->
    (* drop a slice *)
    let i = Random.State.int rng n in
    let len = 1 + Random.State.int rng (n - i) in
    String.sub s 0 i ^ String.sub s (i + len) (n - i - len)
  | 2 ->
    (* insert noise *)
    let i = if n = 0 then 0 else Random.State.int rng n in
    let noise =
      String.init
        (1 + Random.State.int rng 6)
        (fun _ -> Char.chr (Random.State.int rng 256))
    in
    String.sub s 0 i ^ noise ^ String.sub s i (n - i)
  | 3 when n > 0 ->
    (* truncate *)
    String.sub s 0 (Random.State.int rng n)
  | _ ->
    (* splice two corpus statements *)
    let other = List.nth statement_corpus
        (Random.State.int rng (List.length statement_corpus)) in
    let i = if n = 0 then 0 else Random.State.int rng n in
    let j = Random.State.int rng (String.length other + 1) in
    String.sub s 0 i ^ String.sub other j (String.length other - j)

let mutated rng =
  let s =
    List.nth statement_corpus
      (Random.State.int rng (List.length statement_corpus))
  in
  let rec go s = function 0 -> s | k -> go (mutate rng s) (k - 1) in
  go s (1 + Random.State.int rng 3)

(* Mutated statements through the in-process entry points: the evaluator
   must answer [Ok]/[Error] on every input, never raise. *)
let prop_exec_never_raises =
  let db = Load.load_db { small_spec with Load.documents = 2; versions = 2 } in
  QCheck.Test.make ~count:300 ~name:"exec total on mutated statements"
    QCheck.(pair small_nat (small_list small_nat))
    (fun (seed, salts) ->
      let rng = Random.State.make (Array.of_list (seed :: salts)) in
      let s = mutated rng in
      (match Exec.run_string db s with Ok _ | Error _ -> ());
      (match Exec.explain_string db s with Ok _ | Error _ -> ());
      (match Exec.explain_analyze_string db s with Ok _ | Error _ -> ());
      true)

let test_deep_nesting_rejected () =
  let db = Db.create () in
  let deep = String.make 2000 '(' ^ "1" ^ String.make 2000 ')' in
  (match Exec.run_string db ("SELECT R FROM doc(\"a\")//r R WHERE " ^ deep ^ " = 1")
   with
   | Ok _ -> Alcotest.fail "expected a parse error"
   | Error e ->
     let msg = Exec.error_to_string e in
     Alcotest.(check bool) ("rejected: " ^ msg) true (String.length msg > 0))

(* Mutated statements over the wire: every request gets a terminal frame
   and the connection stays in sync. *)
let test_statement_fuzz_over_wire () =
  let db = Load.load_db { small_spec with Load.documents = 2; versions = 2 } in
  with_server db @@ fun _server port ->
  let rng = Random.State.make [| 0xF422 |] in
  let c = ref (Client.connect ~port ()) in
  for i = 1 to 200 do
    let s = mutated rng in
    match Client.request !c (P.Query s) with
    | Ok _ | Error _ -> ()
    | exception Client.Disconnected ->
      Alcotest.failf "server dropped the connection on %S (iteration %d)" s i
  done;
  Client.close !c;
  c := Client.connect ~port ();
  Alcotest.(check bool) "server healthy after fuzz" true (Client.ping !c);
  Client.close !c

(* --- multi-client differential soak ---------------------------------------- *)

type logged = {
  l_op : Mixed.op;
  l_body : string;  (** full streamed reply (reads) *)
  l_watermark : int;  (** snapshot watermark (reads) / post-commit (writes) *)
  l_ts : int;  (** commit timestamp in epoch seconds (writes) *)
}

let test_differential_soak () =
  let clients = 8 and ops_per_client = 25 and seed = 7 in
  let db = Load.load_db small_spec in
  let seed_commits = (Db.stats db).Db.commits in
  let config = { Server.default_config with Server.readers = clients } in
  let logs = Array.make clients [] in
  let failures = ref [] in
  let fail_mu = Mutex.create () in
  let record_failure msg =
    Mutex.lock fail_mu;
    failures := msg :: !failures;
    Mutex.unlock fail_mu
  in
  with_server ~config db (fun _server port ->
      let run i =
        let g = Mixed.create ~spec:small_spec ~client:i ~seed () in
        let c = Client.connect ~port () in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        for _ = 1 to ops_per_client do
          let op = Mixed.next_op g in
          match Client.request c (request_of_op op) with
          | Ok r ->
            logs.(i) <-
              { l_op = op; l_body = r.Client.body;
                l_watermark = r.Client.watermark; l_ts = r.Client.ts }
              :: logs.(i)
          | Error (code, msg) ->
            record_failure
              (Printf.sprintf "client %d: %s -> error %d: %s" i
                 (Mixed.op_to_string op) code msg)
          | exception Client.Disconnected ->
            record_failure
              (Printf.sprintf "client %d: disconnected on %s" i
                 (Mixed.op_to_string op))
        done
      in
      let threads =
        List.init clients (fun i -> Thread.create (fun () -> run i) ())
      in
      List.iter Thread.join threads);
  (match !failures with
   | [] -> ()
   | msgs -> Alcotest.failf "soak failures:\n%s" (String.concat "\n" msgs));
  let all = List.concat_map (fun l -> l) (Array.to_list logs) in
  (* Commit timestamps come from the logical clock ticking under the write
     lock: unique and totally ordered, so sorting the writes by timestamp
     recovers the exact global commit order across all eight clients. *)
  let writes =
    List.filter (fun l -> Mixed.is_write l.l_op) all
    |> List.sort (fun a b -> compare a.l_ts b.l_ts)
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a.l_ts < b.l_ts && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "commit timestamps are unique and ordered" true
    (strictly_increasing writes);
  Alcotest.(check int) "every write committed"
    ((Db.stats db).Db.commits - seed_commits)
    (List.length writes);
  (* Serial replay: a fresh oracle applies the same writes at the same
     instants in commit order; a read that ran at snapshot watermark w saw
     exactly the first (w - seed) commits, so pausing the replay there and
     running the statement directly must reproduce the streamed body byte
     for byte. *)
  let oracle = Load.load_db small_spec in
  Alcotest.(check int) "oracle seeds identically" seed_commits
    (Db.stats oracle).Db.commits;
  let apply l =
    let ts = Timestamp.of_seconds l.l_ts in
    match l.l_op with
    | Mixed.Insert (url, xml) -> ignore (Db.insert_document oracle ~url ~ts xml)
    | Mixed.Update (url, xml) -> ignore (Db.update_document oracle ~url ~ts xml)
    | Mixed.Delete url -> Db.delete_document oracle ~url ~ts ()
    | Mixed.Query _ -> assert false
  in
  let reads =
    List.filter (fun l -> not (Mixed.is_write l.l_op)) all
    |> List.sort (fun a b -> compare a.l_watermark b.l_watermark)
  in
  Alcotest.(check bool) "soak exercised reads" true (reads <> []);
  Alcotest.(check bool) "soak exercised writes" true (writes <> []);
  let pending = ref writes in
  let applied = ref 0 in
  List.iter
    (fun l ->
      let stmt =
        match l.l_op with Mixed.Query s -> s | _ -> assert false
      in
      while !pending <> [] && seed_commits + !applied < l.l_watermark do
        apply (List.hd !pending);
        pending := List.tl !pending;
        incr applied
      done;
      Alcotest.(check int)
        (Printf.sprintf "oracle reached watermark %d" l.l_watermark)
        l.l_watermark
        (seed_commits + !applied);
      match Exec.run_string oracle stmt with
      | Error e ->
        Alcotest.failf "oracle rejects %S: %s" stmt (Exec.error_to_string e)
      | Ok xml ->
        let want = Print.to_string xml in
        if want <> l.l_body then
          Alcotest.failf
            "divergence at watermark %d on %S:\nserver: %s\noracle: %s"
            l.l_watermark stmt l.l_body want)
    reads

(* --- connection death and shutdown ----------------------------------------- *)

let test_kill_client_mid_stream () =
  let db = Load.load_db { small_spec with Load.documents = 6; versions = 6 } in
  let config =
    { Server.default_config with Server.readers = 2; chunk_bytes = 64 }
  in
  let leaked =
    let server = Server.start ~config db in
    let port = Server.port server in
    let c = Client.connect ~port () in
    P.write_request (Client.fd c)
      (P.Query "SELECT TIME(R), R FROM collection(\"*\")[EVERY]//restaurant R");
    (* take one chunk, then tear the connection down mid-reply *)
    (match P.read_frame ~max_frame:P.default_max_frame (Client.fd c) with
     | `Frame _ -> ()
     | _ -> Alcotest.fail "expected the first reply frame");
    (try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    Client.close c;
    (* the server must shrug it off: still serving, nothing pinned *)
    let c2 = Client.connect ~port () in
    Alcotest.(check bool) "server alive after client death" true
      (Client.ping c2);
    (match Client.query c2 "SELECT R FROM collection(\"*\")//restaurant R" with
     | Ok _ -> ()
     | Error (code, msg) -> Alcotest.failf "query failed (%d): %s" code msg);
    Client.close c2;
    Server.stop server
  in
  Alcotest.(check int) "no leaked pins" 0 leaked;
  Alcotest.(check int) "db agrees" 0 (Db.pinned_snapshots db)

let test_shutdown_under_load () =
  let db = Load.load_db small_spec in
  let config = { Server.default_config with Server.readers = 4 } in
  let server = Server.start ~config db in
  let port = Server.port server in
  let stopped = ref false in
  let run () =
    let c = Client.connect ~port () in
    (try
       while not !stopped do
         match
           Client.query c "SELECT R FROM collection(\"*\")//restaurant R"
         with
         | Ok _ -> ()
         | Error _ -> raise Exit
       done
     with Exit | Client.Disconnected -> ());
    Client.close c
  in
  let threads = List.init 4 (fun _ -> Thread.create run ()) in
  Thread.delay 0.2;
  let leaked = Server.stop server in
  stopped := true;
  List.iter Thread.join threads;
  Alcotest.(check int) "no leaked pins under load" 0 leaked;
  Alcotest.(check int) "db agrees" 0 (Db.pinned_snapshots db)

let test_loadgen_closed_loop () =
  let db = Load.load_db small_spec in
  let config = { Server.default_config with Server.readers = 4 } in
  with_server ~config db @@ fun _server port ->
  let report =
    Loadgen.closed_loop ~port ~clients:4 ~ops_per_client:10
      ~spec:small_spec ~reconnect_every:4 ~seed:3 ()
  in
  Alcotest.(check int) "all ops answered" 40 report.Loadgen.r_ops;
  Alcotest.(check int) "no errors" 0 report.Loadgen.r_errors;
  Alcotest.(check int) "no disconnects" 0 report.Loadgen.r_disconnects;
  Alcotest.(check bool) "throughput measured" true (report.Loadgen.r_qps > 0.0)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "codec roundtrips" `Quick test_codec_roundtrips;
          Alcotest.test_case "frame io" `Quick test_frame_io;
          Alcotest.test_case "http preamble" `Quick test_http_preamble;
        ] );
      ( "serving",
        [
          Alcotest.test_case "query over the wire" `Quick test_query_over_wire;
          Alcotest.test_case "streaming matches eager" `Quick
            test_streaming_matches_eager;
          Alcotest.test_case "http endpoints" `Quick test_http_endpoints;
          Alcotest.test_case "served lifetimes" `Quick test_served_lifetimes;
        ] );
      ( "hostile input",
        [
          Alcotest.test_case "garbage frames" `Quick test_garbage_frames;
          QCheck_alcotest.to_alcotest prop_exec_never_raises;
          Alcotest.test_case "deep nesting rejected" `Quick
            test_deep_nesting_rejected;
          Alcotest.test_case "statement fuzz over the wire" `Quick
            test_statement_fuzz_over_wire;
        ] );
      ( "soak",
        [
          Alcotest.test_case "8-client differential soak" `Quick
            test_differential_soak;
          Alcotest.test_case "loadgen closed loop" `Quick
            test_loadgen_closed_loop;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "kill a client mid-stream" `Quick
            test_kill_client_mid_stream;
          Alcotest.test_case "shutdown under load" `Quick
            test_shutdown_under_load;
        ] );
    ]
