(* txbench: the end-to-end benchmark of txmldbd.

   One run = one workload and one seed, in rounds.  Each round commits the
   seeded corpus, starts the daemon in process with its own store
   configuration, drives it from a single client connection in a closed
   loop over its share of a fixed operation stream, then restarts the store
   and catches a fresh replica up; the last round's outputs are checked.
   A round's timed stream is summarised in blocks of 0.1 to 0.4 s.
   The last line of standard output is the JSON result.

     txbench --workload hot-read --seed 1 --seconds 30 --trace 0

   With [--trace 1] the same run also times the benchmark's own calls into
   each layer and reports per-layer metrics instead of end-to-end ones. *)

module Db = Txq_db.Db
module Config = Txq_db.Config
module Docstore = Txq_db.Docstore
module Io = Txq_store.Io_stats
module Disk = Txq_store.Disk
module Print = Txq_xml.Print
module Parse = Txq_xml.Parse
module Xml = Txq_xml.Xml
module Server = Txq_server.Server
module Client = Txq_server.Client
module Exec = Txq_query.Exec
module Parser = Txq_query.Parser
module Fti = Txq_fti.Fti
module Diff = Txq_vxml.Diff
module Delta = Txq_vxml.Delta
module Xid = Txq_vxml.Xid
module C = Corpus

let now_ns = Tracer.now_ns
let span = Tracer.with_span
let secs ns = float_of_int ns /. 1e9

(* The daemon's own store configuration: A1 index, 256 x 4 KiB buffer
   pages, 8 MiB version cache, one journal sync per commit. *)
let config = Config.durable Config.default
let server_config = { Server.default_config with Server.readers = 1 }
let check_sample = 100
let layer_sample = 300

(* Mismatches found by the output checks; any one fails the run. *)
let mismatches : string list ref = ref []
let mismatch fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt

(* --- set-up -------------------------------------------------------------- *)

type live = {
  corpus : C.t;
  db : Db.t;
  server : Server.t;
  client : Client.t;
  setup_counts : (string * int) list;  (** exact counts of the set-up commits *)
}

let commit db (c : C.t) ~doc ~version ts =
  let url = c.urls.(doc) and xml = c.xmls.(doc).(version) in
  if version = 0 then ignore (Db.insert_document db ~url ~ts xml)
  else ignore (Db.update_document db ~url ~ts xml)

let set_up spec ~seed =
  let corpus = C.generate spec ~seed in
  let db = Db.create ~config () in
  for version = 0 to spec.C.setup_versions - 1 do
    for doc = 0 to spec.docs - 1 do
      commit db corpus ~doc ~version (C.ts_of spec ~doc ~version)
    done
  done;
  let setup_counts = Io.fields (Db.io_stats db) @ [("live_pages", Db.live_pages db)] in
  let server = Server.start ~config:server_config db in
  let client = Client.connect ~port:(Server.port server) () in
  { corpus; db; server; client; setup_counts }

let stop live =
  Client.close live.client;
  let leaked = Server.stop live.server in
  if leaked <> 0 then mismatch "server stop leaked %d snapshot pin(s)" leaked

(* --- the timed phase ----------------------------------------------------- *)

(* Samples of the timed phase: latencies pooled over the rounds, and the
   summary of each block. *)
type timed = {
  mutable blocks : block list;
  mutable read_ms : float list;
  mutable read_classes : C.read_class list;  (** the class of each read sample *)
  mutable write_ms : float list;
  mutable traced_ms : float list;  (** reads timed inside a span (traced runs) *)
  mutable untraced_ms : float list;
  mutable wall_ns : int;
  mutable ops : int;
  mutable failed : int;
  read_io : Io.t;  (** counters over the reads *)
  write_io : Io.t;  (** counters over the updates *)
  mutable gc_minor_words : float;
  mutable gc_major : int;
  mutable read_bytes : int;  (** result bytes of the read replies *)
}

and block = {
  b_read_p50 : float;
  b_write_p50 : float;
  b_ops_s : float;
}

let timed () =
  {
    blocks = [];
    read_ms = [];
    read_classes = [];
    write_ms = [];
    traced_ms = [];
    untraced_ms = [];
    wall_ns = 0;
    ops = 0;
    failed = 0;
    read_io = Io.create ();
    write_io = Io.create ();
    gc_minor_words = 0.0;
    gc_major = 0;
    read_bytes = 0;
  }

let send live = function
  | C.Read { stmt; _ } -> Client.query live.client stmt
  | C.Write { doc; version } ->
    Client.update live.client ~url:live.corpus.urls.(doc) live.corpus.texts.(doc).(version)

let warm_up live ops =
  Array.iter
    (fun op ->
      match send live op with
      | Ok _ -> ()
      | Error (code, msg) -> mismatch "warm-up %s: error %d %s" (C.op_key op) code msg)
    ops

(* One round of the closed loop: each request is sent when the previous
   reply has arrived.  In a traced run every other operation runs inside a
   span, so the gap between the two halves is the tracing overhead. *)
let run_round t live ops ~traced ~blocks =
  let io = Db.io_stats live.db in
  let gc0 = Gc.quick_stat () in
  let n = Array.length ops in
  let start = Array.make (n + 1) 0 and lat = Array.make n 0.0 in
  Array.iteri
    (fun i op ->
      let in_span = traced && i mod 2 = 0 in
      Tracer.set_request (t.ops + i + 1);
      let before = Io.copy io in
      let a = now_ns () in
      start.(i) <- a;
      let r =
        try
          if in_span then
            span (match op with C.Read _ -> "client.read" | C.Write _ -> "client.write")
              (fun () -> send live op)
          else send live op
        with Client.Disconnected -> Error (-1, "disconnected")
      in
      let ms = float_of_int (now_ns () - a) /. 1e6 in
      lat.(i) <- ms;
      let d = Io.diff ~after:io ~before in
      (match r with
       | Ok reply -> (
         match op with
         | C.Read _ -> t.read_bytes <- t.read_bytes + String.length reply.Client.body
         | C.Write _ -> ())
       | Error (code, msg) ->
         t.failed <- t.failed + 1;
         mismatch "%s: error %d %s" (C.op_key op) code msg);
      match op with
      | C.Read { cls; _ } ->
        t.read_ms <- ms :: t.read_ms;
        t.read_classes <- cls :: t.read_classes;
        Io.add t.read_io d;
        if traced then
          if in_span then t.traced_ms <- ms :: t.traced_ms
          else t.untraced_ms <- ms :: t.untraced_ms
      | C.Write _ ->
        t.write_ms <- ms :: t.write_ms;
        Io.add t.write_io d)
    ops;
  start.(n) <- now_ns ();
  t.wall_ns <- t.wall_ns + (start.(n) - start.(0));
  for b = 0 to blocks - 1 do
    let lo = b * n / blocks and hi = (b + 1) * n / blocks in
    let of_kind read =
      List.init (hi - lo) (fun k -> lo + k)
      |> List.filter (fun i -> (match ops.(i) with C.Read _ -> true | C.Write _ -> false) = read)
      |> List.map (fun i -> lat.(i))
    in
    t.blocks <-
      {
        b_read_p50 = Report.median_list (of_kind true);
        b_write_p50 = Report.median_list (of_kind false);
        b_ops_s = float_of_int (hi - lo) /. secs (start.(hi) - start.(lo));
      }
      :: t.blocks
  done;
  let gc1 = Gc.quick_stat () in
  t.ops <- t.ops + Array.length ops;
  t.gc_minor_words <- t.gc_minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  t.gc_major <- t.gc_major + (gc1.Gc.major_collections - gc0.Gc.major_collections)

(* --- output checks ------------------------------------------------------- *)

let in_process db stmt =
  match Exec.run_string db stmt with
  | Ok xml -> Print.to_string xml
  | Error e -> "error: " ^ Exec.error_to_string e

let read_stmts ops =
  Array.to_list ops |> List.filter_map (function C.Read r -> Some r.stmt | C.Write _ -> None)

let spread k l =
  let a = Array.of_list l in
  let n = Array.length a in
  if n <= k then l else List.init k (fun i -> a.(i * n / k))

(* Served results must equal in-process evaluation byte for byte. *)
let check_served live stmts =
  List.iter
    (fun stmt ->
      match Client.query live.client stmt with
      | Ok reply ->
        if reply.Client.body <> in_process live.db stmt then
          mismatch "served result differs from in-process: %s" stmt
      | Error (code, msg) -> mismatch "check %s: error %d %s" stmt code msg)
    stmts

(* Statements a restarted store and a replica must answer like the primary. *)
let probes (c : C.t) =
  let spec = c.spec in
  let mid = C.date (C.ts_of spec ~doc:0 ~version:(spec.setup_versions / 2)) in
  List.concat
    (List.init spec.docs (fun d ->
         let url = c.urls.(d) in
         [
           Printf.sprintf "SELECT R/name, R/price FROM doc(\"%s\")//restaurant R" url;
           Printf.sprintf "SELECT R/name, R/price FROM doc(\"%s\")[%s]//restaurant R" url mid;
         ]))
  @ [
      Printf.sprintf
        "SELECT TIME(R), R/price FROM doc(\"%s\")[EVERY]//restaurant R WHERE R/name = \"%s\""
        c.urls.(0) (List.hd (C.names c.xmls.(0).(0)));
    ]

let check_probes ~what primary other stmts =
  List.iter
    (fun s ->
      if in_process other s <> in_process primary s then
        mismatch "%s answers differently from the primary: %s" what s)
    stmts

(* --- restart and catch-up ------------------------------------------------ *)

let recover live =
  let t0 = now_ns () in
  let r = span "db.recover" (fun () -> Db.recover (Db.disk live.db) config) in
  let dt = secs (now_ns () - t0) in
  (dt, (Db.io_stats r).Io.page_reads, r)

let catch_up live =
  let target = Db.durable_records live.db in
  let t0 = now_ns () in
  let rp = Db.Replay.create ~config () in
  while Db.Replay.applied rp < target do
    let batch = span "db.ship" (fun () -> Db.ship live.db ~from:(Db.Replay.applied rp) ()) in
    List.iter (fun s -> span "db.apply" (fun () -> Db.Replay.apply rp s)) batch
  done;
  (secs (now_ns () - t0), rp)

(* --- per-layer passes (traced runs) -------------------------------------- *)

type layers = {
  overhead_us : float list;
  rows : int list;
  deltas_applied_per_reconstruct : float;
  commits : int;
  delta_bytes : int list;
  postings_added : int;
  segments : int;
}

(* Each sampled read: in-process parse, plan, FTI lookup, execution and
   printing under spans; then the same statement served and evaluated
   in-process again, both warm, whose difference is the server's share. *)
let layer_reads live reads =
  let fti = Db.fti live.db in
  let overhead = ref [] and rows = ref [] in
  List.iteri
    (fun i (r : C.op) ->
      match r with
      | C.Write _ -> ()
      | C.Read { stmt; word; _ } ->
        Tracer.set_request (1_000_000 + i);
        let body =
          span "stmt" (fun () ->
              let parsed =
                match span "query.parse" (fun () -> Parser.parse_statement stmt) with
                | Ok s -> s
                | Error e -> failwith ("parse: " ^ e)
              in
              ignore (span "query.plan" (fun () -> Exec.explain_statement live.db parsed));
              ignore
                (span "fti.lookup" (fun () ->
                     Db.with_read live.db (fun () -> Fti.lookup fti word)));
              match span "query.exec" (fun () -> Exec.run_statement live.db parsed) with
              | Ok xml ->
                rows := List.length (Xml.children xml) :: !rows;
                span "xml.print" (fun () -> Print.to_string xml)
              | Error e -> "error: " ^ Exec.error_to_string e)
        in
        let parsed = Result.get_ok (Parser.parse_statement stmt) in
        let a = now_ns () in
        let served = span "server.request" (fun () -> Client.query live.client stmt) in
        let b = now_ns () in
        let engine =
          span "server.engine" (fun () ->
              match Exec.run_statement live.db parsed with
              | Ok xml -> Print.to_string xml
              | Error e -> "error: " ^ Exec.error_to_string e)
        in
        let c = now_ns () in
        overhead := float_of_int (b - a - (c - b)) /. 1e3 :: !overhead;
        match served with
        | Ok reply when reply.Client.body = body && body = engine -> ()
        | Ok _ -> mismatch "traced statement differs served vs in-process: %s" stmt
        | Error (code, msg) -> mismatch "traced %s: error %d %s" stmt code msg)
    reads;
  (!overhead, !rows)

(* Cold reconstruction of the (document, version) pairs the reads touch. *)
let layer_reconstruct live reads =
  let before = (Db.io_stats live.db).Io.deltas_applied in
  let n = ref 0 in
  List.iter
    (function
      | C.Read { doc; version; _ } -> (
        match Db.find_live live.db live.corpus.urls.(doc) with
        | Some d ->
          Db.flush_cache live.db;
          incr n;
          ignore
            (span "db.reconstruct" (fun () ->
                 Db.reconstruct live.db (Docstore.doc_id d) version))
        | None -> ())
      | C.Write _ -> ())
    reads;
  float_of_int ((Db.io_stats live.db).Io.deltas_applied - before) /. float_of_int (max 1 !n)

(* Replays every write input of the workload (set-up commits, then the
   served updates) into a fresh store, timing parse, diff and commit. *)
let layer_commits (c : C.t) =
  let spec = c.spec in
  let db = Db.create ~config () in
  let fti = Db.fti db in
  let postings0 = (Fti.stats fti).Fti.fs_postings in
  let delta_bytes = ref [] and commits = ref 0 in
  let one ~doc ~version ts =
    let text = c.texts.(doc).(version) in
    let xml =
      match span "xml.parse" (fun () -> Parse.parse text) with
      | Ok x -> x
      | Error e -> failwith (Parse.error_to_string e)
    in
    (match Db.find_live db c.urls.(doc) with
     | Some d ->
       let gen = Xid.Gen.create () in
       Xid.Gen.mark_used gen (Xid.of_int (Docstore.xid_watermark d));
       let delta, _ =
         span "vxml.diff" (fun () ->
             Diff.diff ~gen ~old_tree:(Docstore.current d) ~new_tree:(Xml.normalize xml))
       in
       delta_bytes := String.length (Delta.encode delta) :: !delta_bytes
     | None -> ());
    span "db.commit" (fun () -> commit db c ~doc ~version ts);
    incr commits
  in
  for version = 0 to spec.C.setup_versions - 1 do
    for doc = 0 to spec.docs - 1 do
      one ~doc ~version (C.ts_of spec ~doc ~version)
    done
  done;
  let last = C.ts_of spec ~doc:(spec.docs - 1) ~version:(spec.setup_versions - 1) in
  for i = 0 to spec.writes - 1 do
    let doc, version = C.write_target c i in
    one ~doc ~version (Txq_temporal.Timestamp.add last (Txq_temporal.Duration.seconds (i + 1)))
  done;
  let st = Fti.stats fti in
  ( !commits,
    !delta_bytes,
    st.Fti.fs_postings - postings0,
    st.Fti.fs_segments )

let layer_passes live ops =
  let sampled =
    spread layer_sample
      (List.filter (function C.Read _ -> true | C.Write _ -> false) (Array.to_list ops))
  in
  let overhead_us, rows = layer_reads live sampled in
  let deltas_applied_per_reconstruct = layer_reconstruct live sampled in
  let commits, delta_bytes, postings_added, segments = layer_commits live.corpus in
  {
    overhead_us;
    rows;
    deltas_applied_per_reconstruct;
    commits;
    delta_bytes;
    postings_added;
    segments;
  }

(* --- the run ------------------------------------------------------------- *)

let metric ?(samples = 1) name unit_ value = { Report.name; value; unit_; samples }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let hit_ratio hits misses = if hits + misses = 0 then 1.0 else ratio hits (hits + misses)

let provenance spec ~seed ~seconds ~traced ~ops =
  let count p = Array.fold_left (fun n op -> if p op then n + 1 else n) 0 ops in
  let cls k = count (function C.Read r -> r.cls = k | C.Write _ -> false) in
  let env k = Option.value ~default:"unknown" (Sys.getenv_opt k) in
  Report.json_obj
    [
      ("workload", Report.json_string spec.C.name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_bool traced);
      ("commit", Report.json_string (env "TXBENCH_COMMIT"));
      ("source_md5", Report.json_string (env "TXBENCH_SOURCE"));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Report.json_string Sys.ocaml_version);
      ( "config",
        Report.json_obj
          [
            ("fti_mode", Report.json_string "A1");
            ("buffer_pool_pages", string_of_int config.Config.buffer_pool_pages);
            ("page_size", string_of_int Disk.page_size);
            ("version_cache_bytes", string_of_int config.Config.version_cache_bytes);
            ("durability", Report.json_string "journal");
            ("group_commit", string_of_bool config.Config.group_commit);
            ("planner", string_of_bool config.Config.planner);
            ("domains", string_of_int config.Config.domains);
            ("server_readers", string_of_int server_config.Server.readers);
          ] );
      ( "corpus",
        Report.json_obj
          [
            ("docs", string_of_int spec.docs);
            ("setup_versions", string_of_int spec.setup_versions);
            ("restaurants", string_of_int spec.restaurants);
          ] );
      ( "ops",
        Report.json_obj
          [
            ("current", string_of_int (cls C.Current));
            ("past", string_of_int (cls C.Past));
            ("every", string_of_int (cls C.Every));
            ("update", string_of_int (count (function C.Write _ -> true | C.Read _ -> false)));
          ] );
    ]

let run spec ~seed ~seconds ~traced =
  let calib_before = Report.calibration_ms () in
  (* determinism of the harness: the same seed gives the same stream, and
     another seed a different one *)
  let stream_of seed = C.stream (C.generate spec ~seed) ~seed ~seconds in
  let keys (w, r) = Array.map C.op_key (Array.concat (w :: Array.to_list r)) in
  let warmup, round_ops = stream_of seed in
  let these = keys (warmup, round_ops) in
  if these <> keys (stream_of seed) then mismatch "stream not deterministic";
  if these = keys (stream_of (seed + 1)) then
    mismatch "seeds %d and %d give the same stream" seed (seed + 1);
  let ops = Array.concat (Array.to_list round_ops) in
  Printf.printf "provenance %s\n%!" (provenance spec ~seed ~seconds ~traced ~ops);
  (* Rounds: each sets up a fresh store, warms it up and runs its share of
     the timed stream, then stops the server, restarts the store and
     catches a fresh replica up.  Every timing is thus sampled across the
     whole run rather than in one stretch of it.  The last round's store
     also goes through the output checks and, traced, the per-layer
     passes. *)
  let rounds = Array.length round_ops in
  let t = timed () in
  let alloc_loop = ref [] in
  let setup_times = ref [] and recover_times = ref [] and catchup_times = ref [] in
  let setup_counts = ref None and recover_reads = ref 0 in
  let reads = read_stmts ops in
  let probe_stmts = ref [] in
  let final = ref None in
  Array.iteri
    (fun r ops ->
      let last = r = Array.length round_ops - 1 in
      Gc.compact ();
      alloc_loop := Report.alloc_loop_ms () :: !alloc_loop;
      let t0 = now_ns () in
      let live = set_up spec ~seed in
      setup_times := secs (now_ns () - t0) :: !setup_times;
      (match !setup_counts with
       | Some c when c <> live.setup_counts -> mismatch "set-up counts differ between rounds"
       | _ -> setup_counts := Some live.setup_counts);
      warm_up live warmup;
      Tracer.on := traced;
      run_round t live ops ~traced ~blocks:spec.C.blocks;
      if last then begin
        check_served live (spread check_sample reads);
        probe_stmts := probes live.corpus;
        final := Some (live, if traced then Some (layer_passes live ops) else None)
      end;
      stop live;
      let dt, page_reads, recovered = recover live in
      recover_times := dt :: !recover_times;
      (* rounds are identical, so their restarts read the same pages; the
         last one is left out, its store also served the output checks *)
      (match !recover_reads with
       | 0 -> recover_reads := page_reads
       | n when n <> page_reads && not last ->
         mismatch "restart page reads differ between rounds: %d, %d" n page_reads
       | _ -> ());
      if last then begin
        (match Db.verify recovered with
         | Ok _ -> ()
         | Error errs -> mismatch "recovered store fails verify: %s" (String.concat "; " errs));
        check_probes ~what:"recovered store" live.db recovered !probe_stmts
      end;
      Gc.compact ();
      let dt, replica = catch_up live in
      catchup_times := dt :: !catchup_times;
      if last then check_probes ~what:"replica" live.db (Db.Replay.db replica) !probe_stmts;
      Tracer.on := false;
      let here = List.filteri (fun i _ -> i < spec.C.blocks) t.blocks |> List.rev in
      let each f = String.concat "," (List.map (fun b -> Printf.sprintf "%.4f" (f b)) here) in
      Printf.printf
        "round %d: setup_s=%.4f recover_s=%.4f catchup_s=%.4f read_p50_ms=%s write_p50_ms=%s \
         ops_s=%s alloc_loop_ms=%.3f\n%!"
        r (List.hd !setup_times) (List.hd !recover_times) dt (each (fun b -> b.b_read_p50))
        (each (fun b -> b.b_write_p50)) (each (fun b -> b.b_ops_s)) (List.hd !alloc_loop))
    round_ops;
  let live, layers = Option.get !final in
  let recover_reads = !recover_reads in
  let user_bytes =
    let n = ref 0 in
    for doc = 0 to spec.docs - 1 do
      for v = 0 to spec.setup_versions - 1 do
        n := !n + String.length live.corpus.texts.(doc).(v)
      done
    done;
    for i = 0 to spec.writes - 1 do
      let doc, v = C.write_target live.corpus i in
      n := !n + String.length live.corpus.texts.(doc).(v)
    done;
    !n
  in
  let store_ratio = ratio (Db.live_pages live.db * Disk.page_size) user_bytes in
  let calib_after = Report.calibration_ms () in
  let records = Db.durable_records live.db in
  let read_ms = Array.of_list t.read_ms and write_ms = Array.of_list t.write_ms in
  let nreads = Array.length read_ms and nwrites = Array.length write_ms in
  let attempted =
    t.ops + List.length (spread check_sample reads) + (2 * List.length !probe_stmts)
  in
  let failed = t.failed + List.length !mismatches in
  (* The host has slow stretches, from a second to a whole run, in which
     everything the program does takes up to 1.6 times as long (see
     "Steadiness" in README.md).  Times summarised per block are therefore
     reported from the fastest block, and restart and catch-up, timed
     once per round, from the fastest round.  The tails pool every sample
     of the run and stop at the 95th percentile: the hypervisor takes the
     CPU away for a 4 ms tick about once in a hundred requests, more or
     less often from run to run, and that alone sets the 99th. *)
  let fastest f = Report.minimum (List.map f t.blocks) in
  let e2e =
    [
      metric ~samples:rounds "setup_s" "s" (Report.median_list !setup_times);
      metric ~samples:t.ops "throughput_ops_s" "1/s" (-.fastest (fun b -> -.b.b_ops_s));
      metric ~samples:nreads "read_p50_ms" "ms" (fastest (fun b -> b.b_read_p50));
      metric ~samples:nreads "read_p95_ms" "ms" (Report.percentile read_ms 0.95);
      metric ~samples:nwrites "write_p50_ms" "ms" (fastest (fun b -> b.b_write_p50));
      metric ~samples:nwrites "write_p95_ms" "ms" (Report.percentile write_ms 0.95);
      metric ~samples:rounds "recover_s" "s" (Report.minimum !recover_times);
      metric ~samples:rounds "catchup_s" "s" (Report.minimum !catchup_times);
      metric "peak_rss_mb" "MB" (Report.peak_rss_mb ());
      metric ~samples:user_bytes "store_bytes_per_user_byte" "ratio" store_ratio;
      metric ~samples:attempted "ok_share" "share"
        (1.0 -. (float_of_int failed /. float_of_int attempted));
    ]
  in
  let per_layer =
    match layers with
    | None -> []
    | Some l ->
      let self = Tracer.self_us_by_name () in
      let p50 metric_name span_name =
        let xs = self span_name in
        metric ~samples:(List.length xs) metric_name "us" (Report.median_list xs)
      in
      let per name n = Report.sum_list (self name) /. float_of_int (max 1 n) in
      let shipped = records * rounds in
      let io = t.read_io in
      let hits name h m = metric ~samples:(h + m) name "ratio" (hit_ratio h m) in
      [
        metric ~samples:(List.length l.overhead_us) "server.overhead_us" "us"
          (Report.median_list l.overhead_us);
        metric ~samples:nreads "server.bytes_out_per_request" "bytes" (ratio t.read_bytes nreads);
        p50 "query.parse_us" "query.parse";
        p50 "query.plan_us" "query.plan";
        p50 "query.exec_us" "query.exec";
        metric ~samples:(List.length l.rows) "query.rows_per_statement" "count"
          (ratio (List.fold_left ( + ) 0 l.rows) (List.length l.rows));
        p50 "xml.print_us" "xml.print";
        p50 "xml.parse_us" "xml.parse";
        p50 "db.commit_us" "db.commit";
        p50 "db.reconstruct_us" "db.reconstruct";
        hits "db.vcache_hit_ratio" io.Io.vcache_hits io.Io.vcache_misses;
        metric ~samples:nreads "db.deltas_applied_per_read" "count"
          (ratio io.Io.deltas_applied nreads);
        metric ~samples:(List.length (self "db.reconstruct")) "db.deltas_applied_per_reconstruct"
          "count" l.deltas_applied_per_reconstruct;
        metric ~samples:records "db.recover_page_reads_per_record" "count"
          (ratio recover_reads records);
        metric ~samples:shipped "db.ship_us_per_record" "us" (per "db.ship" shipped);
        metric ~samples:shipped "db.apply_us_per_record" "us" (per "db.apply" shipped);
        p50 "vxml.diff_us" "vxml.diff";
        metric ~samples:(List.length l.delta_bytes) "vxml.delta_bytes_per_commit" "bytes"
          (ratio (List.fold_left ( + ) 0 l.delta_bytes) (List.length l.delta_bytes));
        p50 "fti.lookup_us" "fti.lookup";
        metric ~samples:l.commits "fti.postings_per_commit" "count"
          (ratio l.postings_added l.commits);
        metric "fti.segments" "count" (float_of_int l.segments);
        metric ~samples:nreads "store.page_reads_per_op" "count" (ratio io.Io.page_reads nreads);
        metric ~samples:nreads "store.seeks_per_op" "count" (ratio io.Io.seeks nreads);
        hits "store.buffer_hit_ratio" io.Io.cache_hits io.Io.cache_misses;
        metric ~samples:nwrites "store.page_writes_per_commit" "count"
          (ratio t.write_io.Io.page_writes nwrites);
        metric ~samples:nwrites "store.fsyncs_per_commit" "count"
          (ratio t.write_io.Io.fsyncs nwrites);
        metric ~samples:t.ops "gc.minor_words_per_op" "words"
          (t.gc_minor_words /. float_of_int t.ops);
        metric ~samples:t.ops "gc.major_collections_per_kop" "count"
          (1000.0 *. float_of_int t.gc_major /. float_of_int t.ops);
        metric ~samples:(List.length t.traced_ms) "trace.overhead_pct" "%"
          (100.0 *. ((Report.mean_list t.traced_ms /. Report.mean_list t.untraced_ms) -. 1.0));
        metric ~samples:2 "host.calibration_ms" "ms" ((calib_before +. calib_after) /. 2.0);
        metric ~samples:rounds "host.alloc_loop_ms" "ms" (Report.median_list !alloc_loop);
      ]
  in
  (* exact counts: the same seed must reproduce every one of them *)
  let exact =
    ("recover_page_reads", recover_reads) :: ("records", records)
    :: List.map (fun (k, v) -> ("read_" ^ k, v)) (Io.fields t.read_io)
    @ List.map (fun (k, v) -> ("write_" ^ k, v)) (Io.fields t.write_io)
  in
  Printf.printf "exact %s\n"
    (Report.json_obj (List.map (fun (k, v) -> (k, string_of_int v)) exact));
  Printf.printf "host.calibration_ms before=%.3f after=%.3f\n" calib_before calib_after;
  Printf.printf "%s seed=%d: %d ops (%d reads, %d writes) in %.3f s\n" spec.name seed t.ops nreads
    nwrites (secs t.wall_ns);
  let ladder what xs =
    Printf.printf "  %s ladder ms:%s\n" what
      (String.concat ""
         (List.map
            (fun q -> Printf.sprintf " p%g=%.3f" (q *. 100.) (Report.percentile xs q))
            [0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0]))
  in
  ladder "read" read_ms;
  List.iter
    (fun cls ->
      let xs =
        List.combine t.read_classes t.read_ms
        |> List.filter_map (fun (c, ms) -> if c = cls then Some ms else None)
      in
      if xs <> [] then ladder ("read/" ^ C.class_name cls) (Array.of_list xs))
    [C.Current; C.Past; C.Every];
  ladder "write" write_ms;
  List.iter Report.print_metric e2e;
  if per_layer <> [] then begin
    print_endline "per-layer (traced run):";
    List.iter Report.print_metric per_layer;
    (try Sys.mkdir ".txbench" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".txbench/spans-%s-%d.jsonl" spec.name seed in
    Tracer.write_jsonl path;
    Printf.printf "spans written to %s\n" path
  end;
  List.iter (fun m -> prerr_endline ("MISMATCH " ^ m)) (List.rev !mismatches);
  let correct = !mismatches = [] in
  print_endline
    (Report.result_line ~correct ~attempted ~failed (if traced then per_layer else e2e));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot-read | cold-history | commit-recover");
      ("--seed", Arg.Set_int seed, "N seed of the corpus and operation stream");
      ("--seconds", Arg.Set_int seconds, "N run length; sets the number of rounds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "txbench --workload NAME --seed N --seconds N --trace 0|1";
  match C.find !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some spec ->
    let correct = run spec ~seed:!seed ~seconds:(max 1 !seconds) ~traced:(!trace = 1) in
    if not correct then exit 1
