module Db = Txq_db.Db
module Docstore = Txq_db.Docstore
module Exec = Txq_query.Exec
module Parser = Txq_query.Parser
module Ast = Txq_query.Ast
module Metrics = Txq_obs.Metrics
module Timestamp = Txq_temporal.Timestamp
module Xml = Txq_xml.Xml
module Print = Txq_xml.Print
module P = Protocol

let log_src = Logs.Src.create "txq.server" ~doc:"txmldbd"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  host : string;
  port : int;
  readers : int;
  max_frame : int;
  chunk_bytes : int;
  idle_timeout_s : float;
  grace_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    readers = 4;
    max_frame = P.default_max_frame;
    chunk_bytes = 8 * 1024;
    idle_timeout_s = 0.25;
    grace_s = 5.0;
  }

(* Per-connection counters; merged into the global registry on close so
   /metrics aggregates, while STATS on a live connection reports its own. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_requests : int;
  mutable c_bytes_out : int;
  mutable c_errors : int;
}

type t = {
  db : Db.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  stop_mu : Mutex.t;
  mutable workers : unit Domain.t list;
  conns : (int, conn) Hashtbl.t;
  conns_mu : Mutex.t;
  next_conn : int Atomic.t;
  (* Highest record index any SHIP reply has reached (from + sent):
     feeds the replica-lag gauge without tracking replicas by name. *)
  last_shipped : int Atomic.t;
}

let port t = t.bound_port

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let active_connections t = locked t.conns_mu @@ fun () -> Hashtbl.length t.conns

let register_conn t conn =
  locked t.conns_mu (fun () -> Hashtbl.replace t.conns conn.c_id conn);
  Metrics.incr "server.connections_total"

let unregister_conn t conn =
  locked t.conns_mu (fun () -> Hashtbl.remove t.conns conn.c_id);
  Metrics.incr "server.requests" ~by:conn.c_requests;
  Metrics.incr "server.bytes_out" ~by:conn.c_bytes_out;
  Metrics.incr "server.errors" ~by:conn.c_errors

(* --- responses ----------------------------------------------------------- *)

let send conn resp =
  let opcode, body = P.encode_response resp in
  P.write_frame conn.c_fd opcode body;
  conn.c_bytes_out <- conn.c_bytes_out + 5 + String.length body

let send_error conn code msg =
  conn.c_errors <- conn.c_errors + 1;
  send conn (P.Error (P.error_code_to_int code, msg))

let code_of_exec_error = function
  | Exec.Parse_error _ -> P.E_parse
  | Exec.Unknown_variable _ -> P.E_unknown_variable
  | Exec.Unsupported _ -> P.E_unsupported
  | Exec.Internal _ -> P.E_internal

let send_exec_error conn e =
  send_error conn (code_of_exec_error e) (Exec.error_to_string e)

(* Send a (possibly large) text as bounded chunks. *)
let send_text t conn text =
  let len = String.length text in
  let rec go off =
    if off < len then begin
      let n = Stdlib.min t.cfg.chunk_bytes (len - off) in
      send conn (P.Chunk (String.sub text off n));
      go (off + n)
    end
  in
  go 0

(* --- read requests: one snapshot per request ----------------------------- *)

let with_snapshot t f =
  let snap = Db.snapshot t.db in
  Fun.protect ~finally:(fun () -> Db.release snap) (fun () -> f snap)

let done_at snap ~rows =
  P.Done
    {
      rows;
      watermark = Option.value ~default:0 (Db.snapshot_watermark snap);
      ts = Timestamp.to_seconds (Db.now snap);
    }

(* Statement results stream: rows render one at a time into a bounded
   buffer that flushes as CHUNK frames, so a TPatternScanAll over a deep
   chain never materializes its result document server-side. *)
let handle_query t conn stmt =
  with_snapshot t @@ fun snap ->
  let buf = Buffer.create (t.cfg.chunk_bytes + 512) in
  let flush () =
    if Buffer.length buf > 0 then begin
      send conn (P.Chunk (Buffer.contents buf));
      Buffer.clear buf
    end
  in
  Buffer.add_string buf "<results>";
  let on_row xml =
    Buffer.add_string buf (Print.to_string xml);
    if Buffer.length buf >= t.cfg.chunk_bytes then flush ()
  in
  match Exec.stream_statement snap stmt ~on_row with
  | Ok rows ->
    if rows = 0 then begin
      (* nothing flushed yet: replace the opener with the canonical
         empty-element form, matching the non-streaming printer *)
      Buffer.clear buf;
      Buffer.add_string buf "<results/>"
    end
    else Buffer.add_string buf "</results>";
    flush ();
    send conn (done_at snap ~rows)
  | Error e -> send_exec_error conn e

let handle_explain t conn input =
  with_snapshot t @@ fun snap ->
  match Exec.explain_string snap input with
  | Ok plan ->
    send_text t conn plan;
    send conn (done_at snap ~rows:0)
  | Error e -> send_exec_error conn e

let handle_analyze t conn stmt =
  with_snapshot t @@ fun snap ->
  let result, report = Exec.explain_analyze_statement snap stmt in
  send_text t conn report;
  let rows =
    match result with Ok xml -> List.length (Xml.children xml) | Error _ -> 0
  in
  send conn (done_at snap ~rows)

(* --- write requests ------------------------------------------------------ *)

(* The commit timestamp is read back from the committed version itself
   (version 0 for an insert, the delta's target version for an update,
   the docstore's deletion mark for a delete), so a concurrent writer
   advancing the clock between our commit and the response cannot skew
   it.  The differential soak test depends on this exactness. *)
let write_result t ~ts =
  let watermark = Db.with_read t.db (fun () -> (Db.stats t.db).Db.commits) in
  P.Done { rows = 1; watermark; ts = Timestamp.to_seconds ts }

let handle_insert t conn url doc =
  match Txq_xml.Parse.parse doc with
  | Error e -> send_error conn P.E_parse ("document: " ^ Txq_xml.Parse.error_to_string e)
  | Ok xml -> (
    match Db.insert_document t.db ~url xml with
    | id ->
      let ts =
        Db.with_read t.db (fun () -> Docstore.ts_of_version (Db.doc t.db id) 0)
      in
      send conn (write_result t ~ts)
    | exception Invalid_argument msg -> send_error conn P.E_conflict msg)

let handle_update t conn url doc =
  match Txq_xml.Parse.parse doc with
  | Error e -> send_error conn P.E_parse ("document: " ^ Txq_xml.Parse.error_to_string e)
  | Ok xml -> (
    match Db.update_document t.db ~url xml with
    | delta ->
      let v = delta.Txq_vxml.Delta.to_version in
      let ts =
        Db.with_read t.db (fun () ->
            match Db.find_live t.db url with
            | Some d -> Docstore.ts_of_version d v
            | None -> (
              (* deleted concurrently after our commit: the incarnation
                 that carries version [v] is the newest dead one *)
              match List.rev (Db.find_all t.db url) with
              | d :: _ -> Docstore.ts_of_version d v
              | [] -> Db.now t.db))
      in
      send conn (write_result t ~ts)
    | exception Invalid_argument msg -> send_error conn P.E_conflict msg)

let handle_delete t conn url =
  let target = Db.with_read t.db (fun () -> Db.find_live t.db url) in
  match Db.delete_document t.db ~url () with
  | () ->
    let ts =
      match target with
      | Some d -> (
        match Docstore.deleted_at d with Some ts -> ts | None -> Db.now t.db)
      | None -> Db.now t.db
    in
    send conn (write_result t ~ts)
  | exception Invalid_argument msg -> send_error conn P.E_conflict msg

(* --- journal shipping ----------------------------------------------------- *)

(* One SHIP pull: the shipments as individual frames, then DONE carrying
   the primary's durable watermark so the replica knows its lag without a
   second round trip. *)
let handle_ship t conn ~from ~max =
  let limit = if max = 0 then 256 else Stdlib.min max 4096 in
  match Db.ship t.db ~from ~limit () with
  | shipments ->
    List.iter
      (fun sh ->
        send conn (P.Shipment (Txq_db.Journal_record.encode_shipment sh)))
      shipments;
    let watermark = Db.durable_records t.db in
    let sent = List.length shipments in
    let upto = from + sent in
    (* monotone max: concurrent pulls for older ranges must not regress it *)
    let rec bump () =
      let seen = Atomic.get t.last_shipped in
      if upto > seen && not (Atomic.compare_and_set t.last_shipped seen upto)
      then bump ()
    in
    bump ();
    Metrics.set_gauge "server.replica_lag"
      (Stdlib.max 0 (watermark - Atomic.get t.last_shipped));
    send conn
      (P.Done { rows = sent; watermark; ts = Timestamp.to_seconds (Db.now t.db) })
  | exception Db.Ship_gap i ->
    send_error conn P.E_ship_gap
      (Printf.sprintf
         "record %d was vacuumed away; re-clone from current state" i)
  | exception Invalid_argument msg -> send_error conn P.E_unsupported msg

(* --- metrics and stats --------------------------------------------------- *)

let metrics_text t =
  Metrics.set_gauge "server.active_connections" (active_connections t);
  Metrics.set_gauge "server.active_snapshots" (Db.pinned_snapshots t.db);
  (* Registry counters only merge a connection's tallies when it closes;
     append the live connections so a scrape never under-reports. *)
  let live =
    locked t.conns_mu @@ fun () ->
    Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
    |> List.sort (fun a b -> compare a.c_id b.c_id)
  in
  let b = Buffer.create 512 in
  Buffer.add_string b (Fmt.str "%a" Metrics.pp_dump ());
  if live <> [] then begin
    Buffer.add_string b "active connections:\n";
    List.iter
      (fun c ->
        Buffer.add_string b
          (Printf.sprintf
             "  conn.%d  requests %d  bytes_out %d  errors %d\n" c.c_id
             c.c_requests c.c_bytes_out c.c_errors))
      live
  end;
  Buffer.contents b

let fti_stats t =
  match Db.config t.db with
  | { Txq_db.Config.fti_mode = Txq_db.Config.Fti_versions | Txq_db.Config.Fti_both; _ } ->
    (* the tail counters are writer-mutated: read them under the lock *)
    Some (Db.with_read t.db (fun () -> Txq_fti.Fti.stats (Db.fti t.db)))
  | _ -> None

let stats_text t conn =
  let s = Db.stats t.db in
  let b = Buffer.create 256 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "commits: %d\n" s.Db.commits;
  addf "documents: %d\n" (Db.document_count t.db);
  addf "pinned snapshots: %d\n" (Db.pinned_snapshots t.db);
  addf "active connections: %d\n" (active_connections t);
  (match Db.journal t.db with
   | Some _ ->
     let durable = Db.durable_records t.db in
     addf "durable records: %d\n" durable;
     addf "replica lag: %d\n"
       (Stdlib.max 0 (durable - Atomic.get t.last_shipped))
   | None -> ());
  (match fti_stats t with
   | Some f ->
     addf "fti words: %d\n" f.Txq_fti.Fti.fs_words;
     addf "fti postings: %d (%d open)\n" f.Txq_fti.Fti.fs_postings
       f.Txq_fti.Fti.fs_open_postings;
     addf "fti segments: %d (%d freezes)\n" f.Txq_fti.Fti.fs_segments
       f.Txq_fti.Fti.fs_freezes
   | None -> ());
  (match conn with
   | Some c ->
     addf "conn.id: %d\n" c.c_id;
     addf "conn.requests: %d\n" c.c_requests;
     addf "conn.bytes_out: %d\n" c.c_bytes_out;
     addf "conn.errors: %d\n" c.c_errors
   | None -> ());
  Buffer.contents b

(* The HTTP endpoint serves the same numbers as machine-readable JSON
   (everything here is a non-negative int: no escaping concerns). *)
let stats_json t =
  let s = Db.stats t.db in
  let field (k, v) = Printf.sprintf "%S: %d" k v in
  let fti =
    match fti_stats t with
    | None -> []
    | Some f ->
      [ Printf.sprintf "%S: {%s}" "fti"
          (String.concat ", "
             (List.map field
                [ ("words", f.Txq_fti.Fti.fs_words);
                  ("postings", f.Txq_fti.Fti.fs_postings);
                  ("open_postings", f.Txq_fti.Fti.fs_open_postings);
                  ("tail_postings", f.Txq_fti.Fti.fs_tail_postings);
                  ("frozen_postings", f.Txq_fti.Fti.fs_frozen_postings);
                  ("segments", f.Txq_fti.Fti.fs_segments);
                  ("frozen_bytes", f.Txq_fti.Fti.fs_frozen_bytes);
                  ("freezes", f.Txq_fti.Fti.fs_freezes) ])) ]
  in
  let ship =
    match Db.journal t.db with
    | None -> []
    | Some _ ->
      let durable = Db.durable_records t.db in
      let shipped = Atomic.get t.last_shipped in
      [ Printf.sprintf "%S: {%s}" "ship"
          (String.concat ", "
             (List.map field
                [ ("durable_records", durable);
                  ("last_shipped", shipped);
                  ("replica_lag", Stdlib.max 0 (durable - shipped)) ])) ]
  in
  "{"
  ^ String.concat ", "
      (List.map field
         [ ("commits", s.Db.commits);
           ("documents", Db.document_count t.db);
           ("pinned_snapshots", Db.pinned_snapshots t.db);
           ("active_connections", active_connections t) ]
      @ fti @ ship)
  ^ "}\n"

(* --- request dispatch ---------------------------------------------------- *)

let parse_and f t conn input =
  match Parser.parse_statement input with
  | Error e -> send_error conn P.E_parse e
  | Ok stmt -> f t conn stmt

let handle_request t conn = function
  | P.Ping -> send conn P.Pong
  | P.Query s -> parse_and handle_query t conn s
  | P.Explain s -> handle_explain t conn s
  | P.Analyze s -> parse_and handle_analyze t conn s
  | P.Insert (url, doc) -> handle_insert t conn url doc
  | P.Update (url, doc) -> handle_update t conn url doc
  | P.Delete url -> handle_delete t conn url
  | P.Metrics ->
    send_text t conn (metrics_text t);
    send conn (P.Done { rows = 0; watermark = 0; ts = 0 })
  | P.Stats ->
    send_text t conn (stats_text t (Some conn));
    send conn (P.Done { rows = 0; watermark = 0; ts = 0 })
  | P.Ship { from; max } -> handle_ship t conn ~from ~max

let serve_binary t conn =
  let rec loop () =
    match P.read_frame ~max_frame:t.cfg.max_frame conn.c_fd with
    | `Timeout -> if Atomic.get t.stopping then () else loop ()
    | `Eof -> ()
    | `Too_large len ->
      (* the stream is out of sync past a rejected length: answer, drop *)
      send_error conn P.E_too_large
        (Printf.sprintf "frame of %d bytes exceeds limit %d" len t.cfg.max_frame)
    | `Frame (opcode, body) ->
      conn.c_requests <- conn.c_requests + 1;
      (match P.decode_request opcode body with
       | Error msg ->
         send_error conn P.E_bad_frame msg;
         loop ()
       | Ok req ->
         if Atomic.get t.stopping && req <> P.Ping then begin
           send_error conn P.E_shutting_down "server is shutting down"
           (* terminal: the client is told to go away *)
         end
         else begin
           handle_request t conn req;
           loop ()
         end)
  in
  loop ()

(* --- minimal HTTP/1.1 ---------------------------------------------------- *)

let http_respond ?(content_type = "text/plain; charset=utf-8") conn ~status
    ~body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
       Connection: close\r\n\r\n"
      status content_type (String.length body)
  in
  let payload = head ^ body in
  let b = Bytes.of_string payload in
  let rec wr off =
    if off < Bytes.length b then begin
      let n =
        try Unix.write conn.c_fd b off (Bytes.length b - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      wr (off + n)
    end
  in
  wr 0;
  conn.c_bytes_out <- conn.c_bytes_out + String.length payload

(* Read the request head (we only care about the request line; bounded). *)
let http_read_head fd =
  let buf = Buffer.create 512 in
  let b = Bytes.create 512 in
  let rec go () =
    if Buffer.length buf > 8192 then None
    else begin
      match Unix.read fd b 0 (Bytes.length b) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf b 0 n;
        let s = Buffer.contents buf in
        if
          String.length s >= 4
          && String.sub s (String.length s - 4) 4 = "\r\n\r\n"
        then Some s
        else go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* idle timeout while reading the head: give up on the request *)
        None
    end
  in
  go ()

let serve_http t conn =
  match http_read_head conn.c_fd with
  | None -> ()
  | Some head ->
    conn.c_requests <- conn.c_requests + 1;
    let path =
      match String.split_on_char ' ' head with
      | _meth :: path :: _ -> path
      | _ -> "/"
    in
    (match path with
     | "/metrics" -> http_respond conn ~status:"200 OK" ~body:(metrics_text t)
     | "/stats" ->
       http_respond conn ~content_type:"application/json" ~status:"200 OK"
         ~body:(stats_json t)
     | _ ->
       conn.c_errors <- conn.c_errors + 1;
       http_respond conn ~status:"404 Not Found" ~body:"not found\n")

(* --- connection & accept loops ------------------------------------------- *)

(* Decide binary vs HTTP from the first bytes without consuming them. *)
let sniff t fd =
  let b = Bytes.create 4 in
  let rec go () =
    match Unix.recv fd b 0 4 [ Unix.MSG_PEEK ] with
    | 0 -> `Eof
    | n when n >= 4 ->
      if P.http_preamble (Bytes.sub_string b 0 4) then `Http else `Binary
    | _ ->
      (* fewer than 4 bytes buffered; a binary frame header is 4 bytes
         and "GET " is 4 bytes, so just wait for more *)
      if Atomic.get t.stopping then `Eof
      else begin
        Thread.yield ();
        go ()
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      if Atomic.get t.stopping then `Eof else go ()
  in
  go ()

let handle_connection t fd =
  let conn =
    {
      c_id = Atomic.fetch_and_add t.next_conn 1;
      c_fd = fd;
      c_requests = 0;
      c_bytes_out = 0;
      c_errors = 0;
    }
  in
  register_conn t conn;
  Fun.protect
    ~finally:(fun () ->
      unregister_conn t conn;
      (try Unix.close fd with Unix.Unix_error _ -> ()))
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.idle_timeout_s;
      (* a reply spans several small writes (chunks, then the terminal
         frame): without TCP_NODELAY, Nagle holds the tail for the peer's
         delayed ACK and every request-reply turn eats ~40 ms *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> () (* unix-domain or already dead *));
      try
        match sniff t fd with
        | `Eof -> ()
        | `Http -> serve_http t conn
        | `Binary -> serve_binary t conn
      with
      | Unix.Unix_error _ ->
        (* dead peer mid-response (EPIPE/ECONNRESET under ignored
           SIGPIPE): drop the connection, never the worker *)
        conn.c_errors <- conn.c_errors + 1
      | exn ->
        conn.c_errors <- conn.c_errors + 1;
        Log.err (fun m ->
            m "connection %d: unexpected %s" conn.c_id (Printexc.to_string exn)))

let worker_loop t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
        handle_connection t fd;
        loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        loop () (* accept timeout: re-check the stop flag *)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        () (* listener closed under us during shutdown *)
    end
  in
  loop ()

(* --- lifecycle ----------------------------------------------------------- *)

let start ?(config = default_config) db =
  if Db.is_snapshot db then invalid_arg "Server.start: need the live handle";
  (* a peer that disappears mid-write must surface as EPIPE on that
     connection, not as a process-killing signal *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
  Unix.listen fd 128;
  (* accept() honours the receive timeout: workers poll the stop flag *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO config.idle_timeout_s;
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let t =
    {
      db;
      cfg = config;
      listen_fd = fd;
      bound_port;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      stop_mu = Mutex.create ();
      workers = [];
      conns = Hashtbl.create 16;
      conns_mu = Mutex.create ();
      next_conn = Atomic.make 1;
      last_shipped = Atomic.make 0;
    }
  in
  t.workers <- List.init config.readers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  Log.info (fun m ->
      m "listening on %s:%d (%d readers)" config.host bound_port config.readers);
  t

let stop t =
  locked t.stop_mu @@ fun () ->
  if Atomic.get t.stopped then Db.pinned_snapshots t.db
  else begin
    Atomic.set t.stopping true;
    (* wait for in-flight connections to drain *)
    let deadline = Unix.gettimeofday () +. t.cfg.grace_s in
    let rec drain () =
      if active_connections t > 0 && Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        drain ()
      end
    in
    drain ();
    (* force-disconnect stragglers: their workers' reads fail over *)
    locked t.conns_mu (fun () ->
        Hashtbl.iter
          (fun _ c ->
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.conns);
    List.iter Domain.join t.workers;
    t.workers <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Atomic.set t.stopped true;
    let leaked = Db.pinned_snapshots t.db in
    if leaked > 0 then
      Log.err (fun m -> m "shutdown leaked %d pinned snapshot(s)" leaked);
    Log.info (fun m -> m "stopped");
    leaked
  end
