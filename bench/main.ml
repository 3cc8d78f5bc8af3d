(* Benchmark harness.

   The paper (EDBT 2002) publishes no quantitative evaluation; every
   experiment here operationalizes a performance claim or an open question
   stated in its text.  DESIGN.md Section 2 maps experiments to paper
   sections; EXPERIMENTS.md records expected-vs-measured outcomes.

   Usage:
     dune exec bench/main.exe                 # all experiment tables
     dune exec bench/main.exe -- e4 e5        # selected experiments
     dune exec bench/main.exe -- --bechamel   # also run microbenchmarks
     dune exec bench/main.exe -- e13 --smoke  # tiny workloads (CI)
     dune exec bench/main.exe -- e14 --smoke --check-overhead
                                              # fail if tracing overhead regresses
     dune exec bench/main.exe -- e22 --smoke --check-codec
                                              # fail if the XML codec allocates more per byte
     dune exec bench/main.exe -- e23 --smoke --check-fti
                                              # fail if FTI maintenance allocates more per occurrence
     dune exec bench/main.exe -- e24 --smoke --check-diff
                                              # fail if the tree diff allocates more per node
     dune exec bench/main.exe -- e25 --smoke --check-delta-cache
                                              # fail unless a warm history read decodes no delta
     dune exec bench/main.exe -- e1 --trace out.jsonl   # span stream

   Each executed experiment also writes BENCH_<name>.json: every printed
   table plus any raw counters the experiment records. *)

module Db = Txq_db.Db
module Config = Txq_db.Config
module Docstore = Txq_db.Docstore
module Timestamp = Txq_temporal.Timestamp
module Duration = Txq_temporal.Duration
module Scan = Txq_core.Scan
module Pattern = Txq_core.Pattern
module Lifetime = Txq_core.Lifetime
module Nav = Txq_core.Nav
module Exec = Txq_query.Exec
module Stratum = Txq_query.Stratum
module Load = Txq_workload.Load
module Restaurant = Txq_workload.Restaurant
module Eid = Txq_vxml.Eid
module Vnode = Txq_vxml.Vnode
open Harness

(* --smoke shrinks workloads so CI can execute an experiment end-to-end *)
let smoke = ref false

let spec ?(seed = 42) ?(documents = 8) ?(versions = 12) ?(restaurants = 20)
    ?(rate = 1.0) () =
  {
    Load.seed;
    documents;
    versions;
    params = { (Restaurant.change_rate rate) with Restaurant.restaurants };
    commit_gap = Duration.hours 6;
  }

let url0 = Load.url_of 0

let run_q db q =
  match Exec.run_string db q with
  | Ok xml -> xml
  | Error e -> failwith (Exec.error_to_string e)

let run_s s q =
  match Stratum.run_string s q with
  | Ok xml -> xml
  | Error e -> failwith ("stratum: " ^ Exec.error_to_string e)

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  section "E1  Snapshot query: native TPatternScan vs stratum"
    "Paper anchor: Section 1 (stratum performance), Section 6.2 Q1.\n\
     Q1-style snapshot count at the history midpoint; document size sweeps.";
  let rows =
    List.map
      (fun restaurants ->
        let sp = spec ~documents:6 ~versions:12 ~restaurants () in
        let db, stratum = Load.load_both sp in
        let mid = Timestamp.to_string (Load.midpoint_ts sp) in
        let q =
          Printf.sprintf
            {|SELECT COUNT(R) FROM doc("%s")[%s]/guide/restaurant R|} url0 mid
        in
        let qsel =
          Printf.sprintf
            {|SELECT R/price FROM doc("%s")[%s]/guide/restaurant R WHERE R/name = "%s"|}
            url0 mid (Load.target_name sp)
        in
        let native = time_us (fun () -> run_q db q) in
        let native_sel = time_us (fun () -> run_q db qsel) in
        let strat = time_us (fun () -> run_s stratum q) in
        let strat_sel = time_us (fun () -> run_s stratum qsel) in
        [
          string_of_int restaurants;
          fmt_us native;
          fmt_us strat;
          Printf.sprintf "%.1fx" (strat /. native);
          fmt_us native_sel;
          fmt_us strat_sel;
        ])
      [10; 40; 160]
  in
  print_table ~title:"E1: snapshot query latency (midpoint of 12 versions)"
    ~columns:
      [
        "restaurants/doc"; "native COUNT"; "stratum COUNT"; "speedup";
        "native selective"; "stratum selective";
      ]
    rows;
  (* microbenchmark: the native snapshot scan itself *)
  let sp = spec ~documents:6 ~versions:12 ~restaurants:40 () in
  let db = Load.load_db sp in
  let mid = Load.midpoint_ts sp in
  let pattern = Pattern.of_path_exn "/guide/restaurant" in
  register_bechamel
    (Bechamel.Test.make ~name:"e1/tpattern_scan (40 rest, 12 v)"
       (Bechamel.Staged.stage (fun () -> Scan.tpattern_scan db pattern mid)))

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  section "E2  Aggregation without reconstruction"
    "Paper anchor: Section 6.2 Q2 - \"reconstruction of the documents is not\n\
     needed. This is important...\"  COUNT stays on the index; SUM(price)\n\
     must reconstruct every matched element.";
  let sp = spec ~documents:6 ~versions:16 ~restaurants:40 () in
  let db = Load.load_db sp in
  let mid = Timestamp.to_string (Load.midpoint_ts sp) in
  let q_count =
    Printf.sprintf {|SELECT COUNT(R) FROM doc("%s")[%s]/guide/restaurant R|}
      url0 mid
  in
  let q_sum =
    Printf.sprintf
      {|SELECT SUM(R/price) FROM doc("%s")[%s]/guide/restaurant R|} url0 mid
  in
  let measure q =
    Db.flush_cache db;
    Db.reset_io db;
    let us = time_us ~warmup:0 ~runs:1 (fun () -> run_q db q) in
    (us, (Db.stats db).Db.reconstructions, (Db.stats db).Db.deltas_read)
  in
  let c_us, c_rec, c_deltas = measure q_count in
  let s_us, s_rec, s_deltas = measure q_sum in
  print_table ~title:"E2: COUNT vs SUM at a midpoint snapshot (cold cache)"
    ~columns:["query"; "latency"; "reconstructions"; "deltas read"]
    [
      ["COUNT(R)"; fmt_us c_us; string_of_int c_rec; string_of_int c_deltas];
      ["SUM(R/price)"; fmt_us s_us; string_of_int s_rec; string_of_int s_deltas];
    ];
  register_bechamel
    (Bechamel.Test.make ~name:"e2/count_no_reconstruct"
       (Bechamel.Staged.stage (fun () -> run_q db q_count)))

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  section "E3  History query: TPatternScanAll vs stratum scan"
    "Paper anchor: Section 6.2 Q3 and Section 7.3.2, plus Section 8's call\n\
     for techniques that reduce delta retrievals.  Price history of one\n\
     restaurant over growing histories.  'direct' calls ElementHistory\n\
     alone (the backward sweep over the element's own subtree, each delta\n\
     applied once); 'query' runs the whole [EVERY] statement.  The paper's\n\
     DocHistory-then-filter form (O(n^2) delta reads) is the test suite's\n\
     differential oracle and is not timed here.";
  let rows =
    List.map
      (fun versions ->
        let sp = spec ~documents:3 ~versions ~restaurants:20 () in
        let q =
          Printf.sprintf
            {|SELECT TIME(R), R/price FROM doc("%s")[EVERY]/guide/restaurant R WHERE R/name = "%s"|}
            url0 (Load.target_name sp)
        in
        let db = Load.load_db sp in
        let stratum = Load.load_stratum sp in
        (* locate the target element once *)
        let pattern =
          Pattern.of_path_exn ~value:(Load.target_name sp)
            "/guide/restaurant/name"
        in
        let eid =
          match Scan.tpattern_scan_all db pattern with
          | b :: _ -> Scan.eid_of_binding b
          | [] -> failwith "E3: target not found"
        in
        let t1 = Timestamp.minus_infinity and t2 = Timestamp.plus_infinity in
        let deltas_of f =
          Db.flush_cache db;
          Db.reset_io db;
          ignore (f ());
          (Db.stats db).Db.deltas_read
        in
        let t_direct =
          time_us ~warmup:1 ~runs:3 (fun () ->
              Db.flush_cache db;
              Txq_core.History.element_history db eid ~t1 ~t2 ~distinct:true ())
        in
        let d_direct =
          deltas_of (fun () ->
              Txq_core.History.element_history db eid ~t1 ~t2 ~distinct:true ())
        in
        let t_sweep =
          time_us ~warmup:1 ~runs:3 (fun () ->
              Db.flush_cache db;
              run_q db q)
        in
        let d_sweep = deltas_of (fun () -> run_q db q) in
        let t_strat = time_us ~warmup:1 ~runs:3 (fun () -> run_s stratum q) in
        [
          string_of_int versions;
          Printf.sprintf "%s (%d deltas)" (fmt_us t_direct) d_direct;
          Printf.sprintf "%s (%d deltas)" (fmt_us t_sweep) d_sweep;
          fmt_us t_strat;
          Printf.sprintf "%.1fx" (t_strat /. t_sweep);
        ])
      [8; 32; 96]
  in
  print_table
    ~title:"E3: one element's full history (EVERY + name predicate, cold)"
    ~columns:
      ["versions"; "sweep (direct)"; "sweep (full query)"; "stratum";
       "sweep speedup vs stratum"]
    rows;
  let sp = spec ~documents:3 ~versions:32 ~restaurants:20 () in
  let db = Load.load_db ~config:(Config.with_snapshots 8 Config.default) sp in
  let pattern =
    Pattern.of_path_exn ~value:(Load.target_name sp) "/guide/restaurant/name"
  in
  register_bechamel
    (Bechamel.Test.make ~name:"e3/tpattern_scan_all (32 v)"
       (Bechamel.Staged.stage (fun () -> Scan.tpattern_scan_all db pattern)))

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  section "E4  Reconstruct cost vs version age and snapshot spacing"
    "Paper anchor: Section 7.3.3 - \"With many deltas this can be very\n\
     expensive, but there is also the possibility of snapshot versions\".\n\
     One document, 128 versions; reconstruct at several ages.";
  let versions = 128 in
  let sp = spec ~documents:1 ~versions ~restaurants:40 () in
  let variants =
    [
      ("none", Config.default);
      ("k=32", Config.with_snapshots 32 Config.default);
      ("k=8", Config.with_snapshots 8 Config.default);
      ("k=2", Config.with_snapshots 2 Config.default);
    ]
  in
  (* probe ages off the snapshot grid so each variant's walk is visible *)
  let ages = [126; 100; 70; 33; 1] in
  let rows =
    List.concat_map
      (fun (label, config) ->
        let db = Load.load_db ~config sp in
        let doc = List.hd (Db.doc_ids db) in
        List.map
          (fun v ->
            Db.flush_cache db;
            Db.reset_io db;
            let us =
              time_us ~warmup:0 ~runs:3 (fun () ->
                  Db.flush_cache db;
                  Db.reconstruct db doc v)
            in
            let deltas = (Db.stats db).Db.deltas_read / 3 in
            [label; string_of_int v; string_of_int deltas; fmt_us us])
          ages)
      variants
  in
  print_table
    ~title:
      (Printf.sprintf "E4: Reconstruct(version) of a %d-version document"
         versions)
    ~columns:["snapshots"; "version"; "deltas applied"; "time (cold)"]
    rows;
  let db = Load.load_db sp in
  let doc = List.hd (Db.doc_ids db) in
  register_bechamel
    (Bechamel.Test.make ~name:"e4/reconstruct_oldest (128 deltas)"
       (Bechamel.Staged.stage (fun () ->
            Db.flush_cache db;
            Db.reconstruct db doc 0)))

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  section "E5  FTI alternatives A1/A2/A3"
    "Paper anchor: Section 7.2 - \"studying the relative performance of the\n\
     three alternatives is left as a topic for future research\".  A1 indexes\n\
     version contents, A2 indexes delta operations, A3 both.";
  let sp = spec ~documents:6 ~versions:24 ~restaurants:20 () in
  let mid = Timestamp.to_string (Load.midpoint_ts sp) in
  let build mode =
    let config = { Config.default with Config.fti_mode = mode } in
    let t0 = Unix.gettimeofday () in
    let db = Load.load_db ~config sp in
    let build_s = Unix.gettimeofday () -. t0 in
    (db, build_s)
  in
  let db_a1, build_a1 = build Config.Fti_versions in
  let db_a2, build_a2 = build Config.Fti_deltas in
  let db_a3, build_a3 = build Config.Fti_both in
  (* pick a word that was deleted somewhere, via the A3 delta index *)
  let deleted_word =
    let dfti = Db.delta_fti db_a3 in
    let candidates =
      Array.to_list Txq_workload.Vocab.restaurant_names
      |> List.concat_map (fun base ->
             List.init 60 (fun i -> Printf.sprintf "%s-%d" base (i + 1)))
    in
    match
      List.find_opt
        (fun w ->
          Txq_fti.Delta_fti.changes_of_kind dfti w Txq_fti.Delta_fti.Deleted
          <> [])
        candidates
    with
    | Some w -> w
    | None -> failwith "E5: workload produced no deletion; raise p_delete"
  in
  let snapshot_q =
    Printf.sprintf {|SELECT COUNT(R) FROM doc("%s")[%s]/guide/restaurant R|}
      url0 mid
  in
  (* change query: versions in which the word was deleted, across docs *)
  let change_a1 db () =
    let fti = Db.fti db in
    List.concat_map
      (fun doc ->
        List.filter_map
          (fun p ->
            if Txq_fti.Posting.is_open p then None
            else Some (doc, p.Txq_fti.Posting.vend))
          (Txq_fti.Fti.lookup_h_doc fti deleted_word ~doc))
      (Db.doc_ids db)
  in
  let change_a2 db () =
    List.map
      (fun e -> (e.Txq_fti.Delta_fti.ch_doc, e.Txq_fti.Delta_fti.ch_version))
      (Txq_fti.Delta_fti.changes_of_kind (Db.delta_fti db) deleted_word
         Txq_fti.Delta_fti.Deleted)
  in
  let index_size db =
    let fti_part =
      if Config.maintains_version_index (Db.config db) then
        Txq_fti.Fti.posting_count (Db.fti db)
      else 0
    in
    let dfti_part =
      if Config.maintains_delta_index (Db.config db) then
        Txq_fti.Delta_fti.entry_count (Db.delta_fti db)
      else 0
    in
    (fti_part, dfti_part)
  in
  let row name db build_s snapshot change =
    let p, e = index_size db in
    [
      name;
      Printf.sprintf "%.2f s" build_s;
      fmt_int p;
      fmt_int e;
      (match snapshot with
       | Some f -> fmt_us (time_us f)
       | None -> "n/a");
      fmt_us (time_us change);
    ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E5: index alternatives (6 docs x 24 versions; change query: deletions of %S)"
         deleted_word)
    ~columns:
      ["alternative"; "build"; "postings"; "delta entries"; "snapshot query";
       "change query"]
    [
      row "A1 versions" db_a1 build_a1
        (Some (fun () -> run_q db_a1 snapshot_q))
        (fun () -> change_a1 db_a1 ());
      row "A2 deltas" db_a2 build_a2 None (fun () -> change_a2 db_a2 ());
      row "A3 both" db_a3 build_a3
        (Some (fun () -> run_q db_a3 snapshot_q))
        (fun () -> change_a2 db_a3 ());
    ];
  register_bechamel
    (Bechamel.Test.make ~name:"e5/fti_lookup_h"
       (Bechamel.Staged.stage (fun () ->
            Txq_fti.Fti.lookup_h (Db.fti db_a1) "restaurant")))

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  section "E6  CreTime: delta traversal vs auxiliary index"
    "Paper anchor: Section 7.3.6 - traversal \"can easily become a\n\
     bottleneck if CreTime is a frequently used operator\"; the index makes\n\
     it a lookup.  Target: the document root (created in version 0, so the\n\
     traversal walks the whole chain).";
  let rows =
    List.map
      (fun versions ->
        let sp = spec ~documents:1 ~versions ~restaurants:20 () in
        let db = Load.load_db sp in
        let teid =
          let doc = List.hd (Db.doc_ids db) in
          let d = Db.doc db doc in
          Eid.Temporal.make
            (Eid.make ~doc ~xid:(Vnode.xid (Docstore.current d)))
            (Docstore.ts_of_version d (versions - 1))
        in
        let traverse_us =
          time_us (fun () ->
              Db.flush_cache db;
              Lifetime.cre_time db ~strategy:`Traverse teid)
        in
        let deltas = Lifetime.last_traverse_deltas () in
        let paged_us =
          time_us (fun () ->
              Db.flush_cache db;
              Lifetime.cre_time db ~strategy:`Index teid)
        in
        Db.flush_cache db;
        Txq_store.Io_stats.reset (Db.io_stats db);
        ignore (Lifetime.cre_time db ~strategy:`Index teid);
        let index_reads = (Db.io_stats db).Txq_store.Io_stats.page_reads in
        [
          string_of_int versions;
          Printf.sprintf "%s (%d deltas)" (fmt_us traverse_us) deltas;
          Printf.sprintf "%s (%d page reads)" (fmt_us paged_us) index_reads;
          Printf.sprintf "%.0fx" (traverse_us /. Float.max paged_us 0.01);
        ])
      [16; 64; 192]
  in
  print_table ~title:"E6: CreTime of the oldest element (cold cache)"
    ~columns:["versions"; "traverse"; "B+-tree index"; "index speedup"]
    rows;
  let sp = spec ~documents:1 ~versions:64 ~restaurants:20 () in
  let db = Load.load_db sp in
  let doc = List.hd (Db.doc_ids db) in
  let d = Db.doc db doc in
  let teid =
    Eid.Temporal.make
      (Eid.make ~doc ~xid:(Vnode.xid (Docstore.current d)))
      (Docstore.ts_of_version d 63)
  in
  register_bechamel
    (Bechamel.Test.make ~name:"e6/cretime_index"
       (Bechamel.Staged.stage (fun () ->
            Lifetime.cre_time db ~strategy:`Index teid)))

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  section "E7  Storage: full copies vs deltas vs deltas+snapshots"
    "Paper anchor: Section 1 - \"the cost of storing the complete document\n\
     versions can be too high\".  4 documents x 32 versions; change rate\n\
     scales the per-commit churn.";
  let rows =
    List.map
      (fun rate ->
        let sp = spec ~documents:4 ~versions:32 ~restaurants:30 ~rate () in
        let db = Load.load_db sp in
        let db_snap =
          Load.load_db ~config:(Config.with_snapshots 8 Config.default) sp
        in
        let stratum = Load.load_stratum sp in
        let native = Db.live_pages db in
        let native_snap = Db.live_pages db_snap in
        let strat = Stratum.stored_pages stratum in
        [
          Printf.sprintf "%.1f" rate;
          fmt_int native;
          fmt_int native_snap;
          fmt_int strat;
          Printf.sprintf "%.1fx" (float_of_int strat /. float_of_int native);
        ])
      [0.5; 1.0; 2.0; 4.0]
  in
  print_table ~title:"E7: live 4 KiB pages after 32 versions of 4 documents"
    ~columns:
      ["change rate"; "deltas only"; "deltas + snap k=8";
       "full copies (stratum)"; "full/delta ratio"]
    rows

(* ------------------------------------------------------------------ E8 *)

let e8 () =
  section "E8  Diff and completed-delta application"
    "Paper anchor: Section 7.3.8 and the storage model of Section 7.1: the\n\
     commit path diffs each revision; completed deltas apply both ways.";
  let rng = Txq_workload.Rng.create ~seed:7 in
  let vocab = Txq_workload.Vocab.create (Txq_workload.Rng.split rng) in
  let rows =
    List.map
      (fun restaurants ->
        let params =
          { Restaurant.default_params with Restaurant.restaurants }
        in
        let gen =
          Restaurant.create ~params ~vocab (Txq_workload.Rng.split rng)
        in
        let xid_gen = Txq_vxml.Xid.Gen.create () in
        let v0 =
          Vnode.of_xml xid_gen (Txq_xml.Xml.normalize (Restaurant.initial gen))
        in
        let next = Restaurant.evolve gen (Vnode.to_xml v0) in
        let diff_us =
          time_us (fun () ->
              (* fresh generator per run so xids do not run away *)
              let g = Txq_vxml.Xid.Gen.create () in
              Txq_vxml.Xid.Gen.mark_used g (Option.get (Vnode.max_xid v0));
              Txq_vxml.Diff.diff ~gen:g ~old_tree:v0 ~new_tree:next)
        in
        let g = Txq_vxml.Xid.Gen.create () in
        Txq_vxml.Xid.Gen.mark_used g (Option.get (Vnode.max_xid v0));
        let delta, v1 =
          Txq_vxml.Diff.diff ~gen:g ~old_tree:v0 ~new_tree:next
        in
        let fwd_us =
          time_us (fun () ->
              let m = Txq_vxml.Xidmap.of_vnode v0 in
              Txq_vxml.Delta.apply_forward m delta)
        in
        let bwd_us =
          time_us (fun () ->
              let m = Txq_vxml.Xidmap.of_vnode v1 in
              Txq_vxml.Delta.apply_backward m delta)
        in
        let encoded = Txq_vxml.Delta.encode delta in
        [
          string_of_int restaurants;
          string_of_int (Vnode.size v0);
          fmt_us diff_us;
          string_of_int (Txq_vxml.Delta.op_count delta);
          fmt_int (String.length encoded);
          fmt_us fwd_us;
          fmt_us bwd_us;
        ])
      [50; 200; 800]
  in
  print_table ~title:"E8: one commit's diff and delta application"
    ~columns:
      ["restaurants"; "tree nodes"; "diff"; "ops"; "delta bytes";
       "apply fwd"; "apply bwd"]
    rows;
  let params = { Restaurant.default_params with Restaurant.restaurants = 200 } in
  let gen = Restaurant.create ~params ~vocab (Txq_workload.Rng.split rng) in
  let xid_gen = Txq_vxml.Xid.Gen.create () in
  let v0 =
    Vnode.of_xml xid_gen (Txq_xml.Xml.normalize (Restaurant.initial gen))
  in
  let next = Restaurant.evolve gen (Vnode.to_xml v0) in
  register_bechamel
    (Bechamel.Test.make ~name:"e8/diff (200 restaurants)"
       (Bechamel.Staged.stage (fun () ->
            let g = Txq_vxml.Xid.Gen.create () in
            Txq_vxml.Xid.Gen.mark_used g (Option.get (Vnode.max_xid v0));
            Txq_vxml.Diff.diff ~gen:g ~old_tree:v0 ~new_tree:next)))

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  section "E9  Delta clustering: page reads and seeks for history access"
    "Paper anchor: Section 7.2 - \"deltas will in many cases be stored\n\
     unclustered... each delta read will involve a disk seek in the worst\n\
     case\".  Reconstructing every version of one document reads its whole\n\
     delta chain; commits of 8 documents were interleaved.";
  let sp = spec ~documents:8 ~versions:32 ~restaurants:20 () in
  let run_one placement =
    let config = { Config.default with Config.placement } in
    let db = Load.load_db ~config sp in
    let doc = List.hd (Db.doc_ids db) in
    let d = Db.doc db doc in
    Db.flush_cache db;
    Txq_store.Io_stats.reset (Db.io_stats db);
    let us =
      time_us ~warmup:0 ~runs:1 (fun () ->
          for v = 0 to Docstore.version_count d - 1 do
            ignore (Db.reconstruct db doc v)
          done)
    in
    let io = Db.io_stats db in
    (us, io.Txq_store.Io_stats.page_reads, io.Txq_store.Io_stats.seeks)
  in
  let u_us, u_reads, u_seeks = run_one `Unclustered in
  let c_us, c_reads, c_seeks = run_one (`Clustered 16) in
  print_table ~title:"E9: full-history reconstruction of one document (cold)"
    ~columns:["placement"; "page reads"; "seeks"; "time"]
    [
      ["unclustered"; fmt_int u_reads; fmt_int u_seeks; fmt_us u_us];
      ["clustered (16-page extents)"; fmt_int c_reads; fmt_int c_seeks;
       fmt_us c_us];
    ]

(* ------------------------------------------------------------------ E10 *)

let e10 () =
  section "E10  Navigation operators: delta-index lookups"
    "Paper anchor: Section 7.3.7 - PreviousTS/NextTS/CurrentTS are lookups\n\
     in the per-document delta index (binary search over version\n\
     timestamps).";
  let iterations = 10_000 in
  let rows =
    List.map
      (fun versions ->
        let sp = spec ~documents:1 ~versions ~restaurants:10 () in
        let db = Load.load_db sp in
        let doc = List.hd (Db.doc_ids db) in
        let d = Db.doc db doc in
        let eid = Eid.make ~doc ~xid:(Vnode.xid (Docstore.current d)) in
        let mid_ts = Docstore.ts_of_version d (versions / 2) in
        let teid = Eid.Temporal.make eid mid_ts in
        let per_op f =
          let us =
            time_us (fun () ->
                for _ = 1 to iterations do
                  ignore (f ())
                done)
          in
          us /. float_of_int iterations *. 1000.0 (* ns/op *)
        in
        let prev = per_op (fun () -> Nav.previous_ts db teid) in
        let nxt = per_op (fun () -> Nav.next_ts db teid) in
        let cur = per_op (fun () -> Nav.current_ts db eid) in
        let vat = per_op (fun () -> Db.version_at db doc mid_ts) in
        [
          string_of_int versions;
          Printf.sprintf "%.0f ns" prev;
          Printf.sprintf "%.0f ns" nxt;
          Printf.sprintf "%.0f ns" cur;
          Printf.sprintf "%.0f ns" vat;
        ])
      [16; 128; 1024]
  in
  print_table ~title:"E10: per-operation cost of version navigation"
    ~columns:["versions"; "PreviousTS"; "NextTS"; "CurrentTS"; "version_at"]
    rows;
  let sp = spec ~documents:1 ~versions:128 ~restaurants:10 () in
  let db = Load.load_db sp in
  let doc = List.hd (Db.doc_ids db) in
  let d = Db.doc db doc in
  let eid = Eid.make ~doc ~xid:(Vnode.xid (Docstore.current d)) in
  let teid = Eid.Temporal.make eid (Docstore.ts_of_version d 64) in
  register_bechamel
    (Bechamel.Test.make ~name:"e10/previous_ts (128 v)"
       (Bechamel.Staged.stage (fun () -> Nav.previous_ts db teid)))

(* ------------------------------------------------------------------ E11 *)

let e11 () =
  section "E11  Algebraic rewriting: snapshot-to-current"
    "Paper anchor: Section 8 - \"algebraic rewriting techniques\" as a cost\n\
     reducer.  A query written [NOW] is semantically a snapshot query; the\n\
     rewriter turns it into a current-version scan (open postings only),\n\
     skipping the per-posting version resolution of FTI_lookup_T.";
  let rows =
    List.map
      (fun versions ->
        let sp = spec ~documents:6 ~versions ~restaurants:40 () in
        let db = Load.load_db sp in
        let q =
          Printf.sprintf
            {|SELECT COUNT(R) FROM doc("%s")[NOW]/guide/restaurant R|} url0
        in
        let parsed = Txq_query.Parser.parse_exn q in
        let plain = time_us ~runs:15 (fun () -> Exec.run db parsed) in
        let rewritten =
          time_us ~runs:15 (fun () ->
              Exec.run db (Txq_query.Rewrite.query ~now:(Db.now db) parsed))
        in
        (* the isolated operator-level effect, without parse/serialize *)
        let pattern = Pattern.of_path_exn "/guide/restaurant" in
        let now = Db.now db in
        let scan_t =
          time_us ~runs:15 (fun () -> Scan.tpattern_scan db pattern now)
        in
        let scan_cur = time_us ~runs:15 (fun () -> Scan.pattern_scan db pattern) in
        [
          string_of_int versions;
          fmt_us plain;
          fmt_us rewritten;
          Printf.sprintf "%.1fx" (plain /. rewritten);
          fmt_us scan_t;
          fmt_us scan_cur;
          Printf.sprintf "%.1fx" (scan_t /. scan_cur);
        ])
      [8; 32; 128]
  in
  print_table ~title:"E11: [NOW] snapshot count, literal vs rewritten"
    ~columns:
      ["versions"; "query as written"; "query rewritten"; "speedup";
       "TPatternScan(now)"; "PatternScan"; "scan speedup"]
    rows

(* ------------------------------------------------------------------ E12 *)

let e12 () =
  section "E12  Durability: journaling overhead and recovery time"
    "Beyond the paper: the delta index of Section 7.1 is in-memory, so a\n\
     crash loses the version history.  The commit journal appends one\n\
     record per mutating operation; recovery scans the disk, replays the\n\
     journal, and rebuilds every derived index.";
  let rows =
    List.map
      (fun versions ->
        let sp = spec ~documents:4 ~versions ~restaurants:20 () in
        let plain_us = time_us ~runs:3 (fun () -> ignore (Load.load_db sp)) in
        let config = Config.durable Config.default in
        let db = Load.load_db ~config sp in
        let durable_us =
          time_us ~runs:3 (fun () -> ignore (Load.load_db ~config sp))
        in
        let recover_us =
          time_us ~runs:3 (fun () -> ignore (Db.recover (Db.disk db) config))
        in
        let journal_pages =
          match Db.journal db with
          | Some j -> Txq_store.Journal.page_count j
          | None -> 0
        in
        [
          string_of_int versions;
          fmt_us plain_us;
          fmt_us durable_us;
          Printf.sprintf "%.2fx" (durable_us /. plain_us);
          fmt_us recover_us;
          fmt_int journal_pages;
          fmt_int (Db.live_pages db);
        ])
      [8; 32; 128]
  in
  print_table ~title:"E12: commit journaling and recovery (4 documents)"
    ~columns:
      ["versions/doc"; "ingest"; "ingest+journal"; "overhead"; "recover";
       "journal pages"; "live pages"]
    rows

(* ------------------------------------------------------------------ E13 *)

let e13 () =
  section "E13  Version cache and batched sweep: delta applications"
    "Paper anchor: Section 7.3.3 (reconstruction \"can be very expensive\")\n\
     and Section 8's call to \"reduce the number of delta versions that\n\
     have to be retrieved\".  One document; DocHistory materializes every\n\
     version, ElementHistory follows the root element.  'per-version' loops\n\
     Reconstruct over the window (cache off = the pre-cache behavior);\n\
     'batched' is the single reconstruct_range/sweep pass.";
  let versions = if !smoke then 8 else 64 in
  let sp =
    spec ~documents:1 ~versions ~restaurants:(if !smoke then 5 else 20) ()
  in
  let t1 = Timestamp.minus_infinity and t2 = Timestamp.plus_infinity in
  let measurements = ref [] in
  let measure ~snap ~op ~mode db f =
    Db.flush_cache db;
    Db.reset_io db;
    let us = time_us ~warmup:0 ~runs:1 f in
    let io = Db.io_stats db in
    let deltas = io.Txq_store.Io_stats.deltas_applied in
    let hits = io.Txq_store.Io_stats.vcache_hits in
    let misses = io.Txq_store.Io_stats.vcache_misses in
    measurements :=
      Harness.Json.Obj
        [
          ("snapshots", Harness.Json.Str snap);
          ("op", Harness.Json.Str op);
          ("mode", Harness.Json.Str mode);
          ("deltas_applied", Harness.Json.Int deltas);
          ("vcache_hits", Harness.Json.Int hits);
          ("vcache_misses", Harness.Json.Int misses);
          ("wall_us", Harness.Json.Float us);
        ]
      :: !measurements;
    ( [
        snap; op; mode; string_of_int deltas; string_of_int hits;
        string_of_int misses; fmt_us us;
      ],
      deltas )
  in
  let speedups = ref [] in
  let rows =
    List.concat_map
      (fun (snap, base_config) ->
        let load budget =
          let config =
            { base_config with Config.version_cache_bytes = budget }
          in
          let db = Load.load_db ~config sp in
          let doc = List.hd (Db.doc_ids db) in
          (db, doc)
        in
        let db_off, doc_off = load 0 in
        let db_on, doc_on = load Config.default.Config.version_cache_bytes in
        let root_eid db doc =
          Eid.make ~doc
            ~xid:(Vnode.xid (Docstore.current (Db.doc db doc)))
        in
        (* DocHistory, per-version loop: one Reconstruct per version in the
           window, newest first — with the cache off this is the quadratic
           chain re-walk this PR removes *)
        let dochist_loop db doc () =
          List.iter
            (fun dv ->
              ignore (Db.reconstruct db doc dv.Txq_core.History.dv_version))
            (Txq_core.History.doc_history db doc ~t1 ~t2)
        in
        let dochist_batched db doc () =
          ignore (Txq_core.History.doc_history_trees db doc ~t1 ~t2)
        in
        (* ElementHistory of the root element: the paper's naive form is
           DocHistory then filter the subtree out of every version *)
        let elemhist_loop db doc () =
          let eid = root_eid db doc in
          List.iter
            (fun dv ->
              let tree =
                Db.reconstruct db doc dv.Txq_core.History.dv_version
              in
              ignore (Vnode.find tree eid.Eid.xid))
            (Txq_core.History.doc_history db doc ~t1 ~t2)
        in
        let elemhist_batched db doc () =
          ignore
            (Txq_core.History.element_history db (root_eid db doc) ~t1 ~t2
               ~distinct:true ())
        in
        let doc_rows =
          [
            measure ~snap ~op:"DocHistory" ~mode:"per-version, cache off"
              db_off (dochist_loop db_off doc_off);
            measure ~snap ~op:"DocHistory" ~mode:"per-version, cache on"
              db_on (dochist_loop db_on doc_on);
            measure ~snap ~op:"DocHistory" ~mode:"batched sweep" db_on
              (dochist_batched db_on doc_on);
          ]
        in
        let elem_rows =
          [
            measure ~snap ~op:"ElementHistory" ~mode:"per-version, cache off"
              db_off (elemhist_loop db_off doc_off);
            measure ~snap ~op:"ElementHistory" ~mode:"per-version, cache on"
              db_on (elemhist_loop db_on doc_on);
            measure ~snap ~op:"ElementHistory" ~mode:"batched sweep" db_on
              (elemhist_batched db_on doc_on);
          ]
        in
        List.iter
          (fun (op, group) ->
            match List.map snd group with
            | [off; _on; batched] ->
              let x = float_of_int off /. float_of_int (Stdlib.max batched 1) in
              speedups := (snap, op, x) :: !speedups
            | _ -> assert false)
          [("DocHistory", doc_rows); ("ElementHistory", elem_rows)];
        List.map fst (doc_rows @ elem_rows))
      [
        ("none", Config.default);
        ("k=4", Config.with_snapshots 4 Config.default);
      ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E13: delta applications over a %d-version document (cold start)"
         versions)
    ~columns:
      [
        "snapshots"; "operator"; "mode"; "deltas applied"; "vcache hits";
        "vcache misses"; "time";
      ]
    rows;
  List.iter
    (fun (snap, op, x) ->
      Printf.printf "  %s, snapshots %s: %.1fx fewer deltas (off vs batched)\n"
        op snap x)
    (List.rev !speedups);
  Harness.record_json "versions" (Harness.Json.Int versions);
  Harness.record_json "smoke" (Harness.Json.Bool !smoke);
  Harness.record_json "measurements"
    (Harness.Json.Arr (List.rev !measurements));
  Harness.record_json "speedup_off_vs_batched"
    (Harness.Json.Arr
       (List.rev_map
          (fun (snap, op, x) ->
            Harness.Json.Obj
              [
                ("snapshots", Harness.Json.Str snap);
                ("op", Harness.Json.Str op);
                ("x", Harness.Json.Float x);
              ])
          !speedups))

(* ------------------------------------------------------------------ E14 *)

(* --check-overhead turns E14 into a pass/fail gate (used by CI). *)
let check_overhead = ref false
let overhead_threshold = 1.25

let e14 () =
  section "E14  Tracing overhead: instrumentation cost with tracing off/on"
    "Every paper operator carries tracing spans; the design promise is that\n\
     with no sink installed the instrumentation is a pointer compare and\n\
     costs nothing measurable.  Same query workload, three sink states:\n\
     off (production default), null sink (spans built then discarded),\n\
     and a collecting ring (the EXPLAIN ANALYZE path).";
  (* versions/documents chosen so the midpoint commit lands on a day
     boundary: the query grammar takes dates, not times *)
  let sp =
    spec
      ~documents:(if !smoke then 2 else 6)
      ~versions:(if !smoke then 8 else 16)
      ~restaurants:(if !smoke then 5 else 15)
      ()
  in
  let db = Load.load_db ~config:Config.default sp in
  let q_every =
    Printf.sprintf
      {|SELECT R FROM doc("%s")[EVERY]/guide/restaurant R|} url0
  in
  let q_snap =
    Printf.sprintf
      {|SELECT R FROM doc("%s")[%s]/guide/restaurant R|} url0
      (Timestamp.to_string (Load.midpoint_ts sp))
  in
  let workload () =
    ignore (run_q db q_snap);
    ignore (run_q db q_every)
  in
  let runs = if !smoke then 15 else 31 in
  let timed sink =
    Txq_obs.Trace.set_sink sink;
    let us = time_us ~warmup:3 ~runs workload in
    Txq_obs.Trace.set_sink None;
    us
  in
  let off_us = timed None in
  let null_us = timed (Some Txq_obs.Trace.null_sink) in
  let ring_us =
    let sink, _drain = Txq_obs.Trace.ring_sink ~capacity:16 in
    timed (Some sink)
  in
  let rows =
    List.map
      (fun (mode, us) ->
        [mode; fmt_us us; Printf.sprintf "%.2fx" (us /. off_us)])
      [("tracing off", off_us); ("null sink", null_us); ("ring sink", ring_us)]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E14: median of %d runs, snapshot + [EVERY] query per run" runs)
    ~columns:["sink"; "median"; "vs off"] rows;
  let null_ratio = null_us /. off_us in
  record_json "runs" (Harness.Json.Int runs);
  record_json "off_us" (Harness.Json.Float off_us);
  record_json "null_us" (Harness.Json.Float null_us);
  record_json "ring_us" (Harness.Json.Float ring_us);
  record_json "null_over_off" (Harness.Json.Float null_ratio);
  record_json "threshold" (Harness.Json.Float overhead_threshold);
  if !check_overhead then
    if null_ratio > overhead_threshold then begin
      Printf.eprintf
        "E14 FAIL: null-sink overhead %.2fx exceeds threshold %.2fx\n"
        null_ratio overhead_threshold;
      exit 1
    end
    else
      Printf.printf "  overhead check ok: %.2fx <= %.2fx\n" null_ratio
        overhead_threshold

(* ------------------------------------------------------------------ E15 *)

(* --check-scan turns E15 into a pass/fail regression gate (CI): the
   frozen-segment engine at domains=1 must not regress the scan median by
   more than this factor against the never-frozen index, whose per-query
   tail sort reproduces the pre-segment engine's cost. *)
let check_scan = ref false
let scan_threshold = 1.10

(* Part of the same gate: on corpora too small to amortize domain spawning,
   the pool's min-work threshold must collapse multi-domain scans to the
   sequential path, so domains=2/4 may not lose more than noise vs
   domains=1. *)
let multi_scan_threshold = 1.15

let e15 () =
  section "E15  Two-tier FTI: frozen segments and domain-parallel scan"
    "The two-tier index freezes the posting tail into immutable segments\n\
     sorted by (doc, path, vstart) with per-document fences, turning\n\
     FTI_lookup_H(doc) into binary search + slice and removing the\n\
     per-query sort from the TPatternScan engine.  Part 1 sweeps corpus\n\
     size; 'naive' disables freezing (the original list index).  Part 2\n\
     runs TPatternScanAll with the document-partitioned domain pool.";
  let frozen_config =
    { Config.default with Config.fti_segment_postings = 512 }
  in
  let naive_config =
    { Config.default with Config.fti_segment_postings = max_int }
  in
  (* Part 1: lookup_h_doc over every document, frozen vs naive *)
  let doc_counts = if !smoke then [ 4; 8 ] else [ 16; 64; 256 ] in
  let lookup_rows = ref [] in
  let part1 =
    List.map
      (fun documents ->
        let sp =
          spec ~documents ~versions:(if !smoke then 6 else 8)
            ~restaurants:(if !smoke then 5 else 10) ()
        in
        let db_f = Load.load_db ~config:frozen_config sp in
        let db_n = Load.load_db ~config:naive_config sp in
        let docs = Db.doc_ids db_f in
        (* repeat the whole-corpus sweep so even the tiny smoke sizes sit
           well above timer resolution *)
        let sweep db () =
          for _ = 1 to 10 do
            List.iter
              (fun doc ->
                ignore
                  (Txq_fti.Fti.lookup_h_doc (Db.fti db) "restaurant" ~doc))
              docs
          done
        in
        (* warm once so read-triggered segment compaction is not timed *)
        sweep db_f ();
        let f_us = time_us ~warmup:2 ~runs:9 (sweep db_f) in
        let n_us = time_us ~warmup:2 ~runs:9 (sweep db_n) in
        let speedup = n_us /. f_us in
        let segs = Txq_fti.Fti.segment_count (Db.fti db_f) in
        lookup_rows :=
          Harness.Json.Obj
            [
              ("documents", Harness.Json.Int documents);
              ("segments", Harness.Json.Int segs);
              ("naive_us", Harness.Json.Float n_us);
              ("frozen_us", Harness.Json.Float f_us);
              ("speedup", Harness.Json.Float speedup);
            ]
          :: !lookup_rows;
        [
          string_of_int documents; string_of_int segs; fmt_us n_us;
          fmt_us f_us; Printf.sprintf "%.1fx" speedup;
        ])
      doc_counts
  in
  print_table
    ~title:"E15a: FTI_lookup_H(doc) over all documents (median of 9)"
    ~columns:[ "documents"; "segments"; "naive"; "frozen"; "speedup" ]
    part1;
  (* Part 2: TPatternScanAll, document-partitioned over domains *)
  let sp =
    spec
      ~documents:(if !smoke then 6 else 32)
      ~versions:8
      ~restaurants:(if !smoke then 5 else 10)
      ()
  in
  let db_f = Load.load_db ~config:frozen_config sp in
  let db_n = Load.load_db ~config:naive_config sp in
  let pattern = Pattern.of_path_exn "/guide/restaurant/name" in
  let runs = if !smoke then 7 else 15 in
  let scan db domains () =
    ignore (Scan.tpattern_scan_all ~domains db pattern)
  in
  (* reference: never-frozen index = the pre-segment engine's sort cost *)
  scan db_n 1 ();
  scan db_f 1 ();
  let pre_us = time_us ~warmup:2 ~runs (scan db_n 1) in
  let dom_rows =
    List.map
      (fun domains ->
        let us = time_us ~warmup:2 ~runs (scan db_f domains) in
        (domains, us))
      [ 1; 2; 4 ]
  in
  let d1_us = List.assoc 1 dom_rows in
  print_table
    ~title:
      (Printf.sprintf "E15b: TPatternScanAll //guide/restaurant/name (%d runs)"
         runs)
    ~columns:[ "engine"; "domains"; "median"; "vs naive" ]
    (( [ "naive (no segments)"; "1"; fmt_us pre_us; "1.00x" ] )
     :: List.map
          (fun (domains, us) ->
            [
              "frozen segments"; string_of_int domains; fmt_us us;
              Printf.sprintf "%.2fx" (us /. pre_us);
            ])
          dom_rows);
  record_json "smoke" (Harness.Json.Bool !smoke);
  record_json "lookup_scaling" (Harness.Json.Arr (List.rev !lookup_rows));
  record_json "scan_naive_us" (Harness.Json.Float pre_us);
  record_json "scan_domains"
    (Harness.Json.Arr
       (List.map
          (fun (domains, us) ->
            Harness.Json.Obj
              [
                ("domains", Harness.Json.Int domains);
                ("wall_us", Harness.Json.Float us);
              ])
          dom_rows));
  record_json "scan_threshold" (Harness.Json.Float scan_threshold);
  if !check_scan then begin
    let ratio = d1_us /. pre_us in
    record_json "scan_d1_over_naive" (Harness.Json.Float ratio);
    if ratio > scan_threshold then begin
      Printf.eprintf
        "E15 FAIL: domains=1 scan %.2fx of the pre-segment engine exceeds \
         threshold %.2fx\n"
        ratio scan_threshold;
      exit 1
    end
    else
      Printf.printf "  scan regression check ok: %.2fx <= %.2fx\n" ratio
        scan_threshold;
    List.iter
      (fun (domains, us) ->
        if domains > 1 then begin
          let r = us /. d1_us in
          record_json
            (Printf.sprintf "scan_d%d_over_d1" domains)
            (Harness.Json.Float r);
          if r > multi_scan_threshold then begin
            Printf.eprintf
              "E15 FAIL: domains=%d scan %.2fx of domains=1 exceeds threshold \
               %.2fx (min-work threshold not collapsing small scans)\n"
              domains r multi_scan_threshold;
            exit 1
          end
          else
            Printf.printf "  domains=%d small-scan check ok: %.2fx <= %.2fx\n"
              domains r multi_scan_threshold
        end)
      dom_rows
  end

(* ------------------------------------------------------------------ E16 *)

(* --check-vacuum turns E16 into a pass/fail gate (CI): vacuum must
   reclaim bytes and strictly shrink the live page count on every
   configuration, and the retained versions must still verify. *)
let check_vacuum = ref false

let e16 () =
  section "E16  Vacuum: retention squash, reclaimed space, retained latency"
    "Beyond the paper: Section 8 leaves deletion of old versions as future\n\
     work.  Db.vacuum squashes each delta chain's prefix into a new base\n\
     snapshot, frees the dropped blobs and prunes every derived index.\n\
     Space reclaimed, vacuum cost, and query latency over the retained\n\
     window before vs after (cold cache on both sides).";
  let versions = if !smoke then 8 else 64 in
  let keep = Stdlib.max 2 (versions / 4) in
  let documents = if !smoke then 2 else 4 in
  let sp =
    spec ~documents ~versions ~restaurants:(if !smoke then 5 else 20) ()
  in
  let pattern = Pattern.of_path_exn "/guide/restaurant" in
  let t1 = Timestamp.minus_infinity and t2 = Timestamp.plus_infinity in
  let failures = ref [] in
  let results = ref [] in
  let rows =
    List.map
      (fun (snap, base_config) ->
        let config = Config.durable base_config in
        let db = Load.load_db ~config sp in
        let doc = List.hd (Db.doc_ids db) in
        let snap_lat () =
          Db.flush_cache db;
          time_us (fun () -> ignore (Scan.tpattern_scan db pattern t2))
        in
        let hist_lat () =
          Db.flush_cache db;
          time_us (fun () ->
              ignore (Txq_core.History.doc_history_trees db doc ~t1 ~t2))
        in
        let pages_before = Db.live_pages db in
        let snap_before = snap_lat () in
        let hist_before = hist_lat () in
        let retention =
          { Config.no_retention with Config.keep_versions = Some keep }
        in
        let report = ref Db.empty_vacuum_report in
        let vac_us =
          time_us ~warmup:0 ~runs:1 (fun () ->
              report := Db.vacuum ~retention db)
        in
        let r = !report in
        let pages_after = Db.live_pages db in
        let snap_after = snap_lat () in
        let hist_after = hist_lat () in
        let verify_ok = Result.is_ok (Db.verify db) in
        if r.Db.vr_bytes_reclaimed <= 0 then
          failures :=
            Printf.sprintf "snapshots %s: reclaimed %d bytes (expected > 0)"
              snap r.Db.vr_bytes_reclaimed
            :: !failures;
        if pages_after >= pages_before then
          failures :=
            Printf.sprintf
              "snapshots %s: live pages %d -> %d (expected strict decrease)"
              snap pages_before pages_after
            :: !failures;
        if not verify_ok then
          failures :=
            Printf.sprintf "snapshots %s: post-vacuum verify failed" snap
            :: !failures;
        results :=
          Harness.Json.Obj
            [
              ("snapshots", Harness.Json.Str snap);
              ("pages_before", Harness.Json.Int pages_before);
              ("pages_after", Harness.Json.Int pages_after);
              ("bytes_reclaimed", Harness.Json.Int r.Db.vr_bytes_reclaimed);
              ("versions_dropped", Harness.Json.Int r.Db.vr_versions_dropped);
              ("postings_pruned", Harness.Json.Int r.Db.vr_postings_pruned);
              ("dfti_pruned", Harness.Json.Int r.Db.vr_dfti_pruned);
              ("cretime_pruned", Harness.Json.Int r.Db.vr_cretime_pruned);
              ("dtime_pruned", Harness.Json.Int r.Db.vr_dtime_pruned);
              ("vacuum_us", Harness.Json.Float vac_us);
              ("snapshot_query_before_us", Harness.Json.Float snap_before);
              ("snapshot_query_after_us", Harness.Json.Float snap_after);
              ("history_before_us", Harness.Json.Float hist_before);
              ("history_after_us", Harness.Json.Float hist_after);
              ("verify_ok", Harness.Json.Bool verify_ok);
            ]
          :: !results;
        [
          snap;
          Printf.sprintf "%d -> %d" pages_before pages_after;
          Printf.sprintf "%d KiB" (r.Db.vr_bytes_reclaimed / 1024);
          string_of_int r.Db.vr_versions_dropped;
          fmt_us vac_us;
          Printf.sprintf "%s -> %s" (fmt_us snap_before) (fmt_us snap_after);
          Printf.sprintf "%s -> %s" (fmt_us hist_before) (fmt_us hist_after);
          (if verify_ok then "ok" else "FAIL");
        ])
      [
        ("none", Config.default);
        ("k=4", Config.with_snapshots 4 Config.default);
      ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "E16: vacuum keep-last-%d of %d versions x %d documents" keep
         versions documents)
    ~columns:
      [
        "snapshots"; "live pages"; "reclaimed"; "v dropped"; "vacuum";
        "snapshot query"; "DocHistory (retained)"; "verify";
      ]
    rows;
  Harness.record_json "versions" (Harness.Json.Int versions);
  Harness.record_json "keep" (Harness.Json.Int keep);
  Harness.record_json "smoke" (Harness.Json.Bool !smoke);
  Harness.record_json "results" (Harness.Json.Arr (List.rev !results));
  if !check_vacuum then
    match List.rev !failures with
    | [] -> Printf.printf "  vacuum reclamation check ok\n"
    | fs ->
      List.iter (fun f -> Printf.eprintf "E16 FAIL: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ E17 *)

module Alg = Txq_algebra.Algebra
module Alg_timeline = Txq_algebra.Timeline
module Alg_relation = Txq_algebra.Relation
module Alg_oracle = Txq_algebra.Oracle

let check_algebra = ref false

let e17 () =
  section "E17  Temporal algebra: interval arithmetic vs per-instant oracle"
    "Beyond the paper: composed temporal operators (TJoin, TUnion, TExcept,\n\
     interval-split COUNT) over TEID result sets carrying coalesced\n\
     validity sets.  The algebra does interval arithmetic on version\n\
     ranges; the oracle materializes every instant, runs the plain\n\
     relational operator and re-coalesces.  Both must agree byte-for-byte\n\
     on rendered rows; the latency gap is the per-instant materialization\n\
     the algebra avoids.";
  let scan ?word ?(kind = Alg.Collection) ?(url = "*") path =
    Alg.Scan { Alg.l_kind = kind; l_url = url; l_path = path; l_word = word }
  in
  let queries =
    [
      ( "TExcept",
        Alg.Set (Alg.Except, scan "//name", scan ~kind:Alg.Doc ~url:url0 "//name")
      );
      ( "TJoin anc",
        Alg.Joinop
          ( Alg.Join,
            Alg.On_ancestor,
            scan "/guide/restaurant",
            scan "/guide/restaurant/name" ) );
      ( "TLeftJoin",
        Alg.Joinop
          (Alg.Left_join, Alg.On_ancestor, scan "/guide/restaurant", scan "//review")
      );
      ("TCount doc", Alg.Group (Alg.By_doc, scan "/guide/restaurant"));
    ]
  in
  let version_counts = if !smoke then [ 4; 8 ] else [ 8; 16; 32 ] in
  let failures = ref [] in
  let results = ref [] in
  let rows =
    List.concat_map
      (fun versions ->
        let sp =
          spec
            ~documents:(if !smoke then 2 else 4)
            ~versions
            ~restaurants:(if !smoke then 4 else 10)
            ()
        in
        let db = Load.load_db sp in
        let tl = Alg_timeline.of_db db in
        List.map
          (fun (qname, alg) ->
            (match Alg.validate alg with
             | Ok () -> ()
             | Error e -> failwith ("E17 invalid query: " ^ e));
            let alg_us = time_us ~runs:5 (fun () -> Alg.eval db tl alg) in
            let orc_us =
              time_us ~warmup:1 ~runs:3 (fun () -> Alg_oracle.eval db tl alg)
            in
            let subject = Alg_relation.render tl (Alg.eval db tl alg) in
            let oracle = Alg_relation.render tl (Alg_oracle.eval db tl alg) in
            let agree = subject = oracle in
            if not agree then
              failures :=
                Printf.sprintf "%s @ %d versions: algebra <> oracle" qname
                  versions
                :: !failures;
            results :=
              Harness.Json.Obj
                [
                  ("versions", Harness.Json.Int versions);
                  ("query", Harness.Json.Str qname);
                  ("instants", Harness.Json.Int (Alg_timeline.length tl));
                  ("rows", Harness.Json.Int (List.length subject));
                  ("algebra_us", Harness.Json.Float alg_us);
                  ("oracle_us", Harness.Json.Float orc_us);
                  ("agree", Harness.Json.Bool agree);
                ]
              :: !results;
            [
              string_of_int versions;
              qname;
              string_of_int (Alg_timeline.length tl);
              string_of_int (List.length subject);
              fmt_us alg_us;
              fmt_us orc_us;
              Printf.sprintf "%.1fx" (orc_us /. alg_us);
              (if agree then "ok" else "FAIL");
            ])
          queries)
      version_counts
  in
  print_table
    ~title:"E17: temporal algebra vs per-instant oracle (collection scans)"
    ~columns:
      [
        "versions"; "query"; "instants"; "rows"; "algebra"; "oracle";
        "speedup"; "agree";
      ]
    rows;
  Harness.record_json "smoke" (Harness.Json.Bool !smoke);
  Harness.record_json "results" (Harness.Json.Arr (List.rev !results));
  if !check_algebra then
    match List.rev !failures with
    | [] -> Printf.printf "  algebra/oracle agreement check ok\n"
    | fs ->
      List.iter (fun f -> Printf.eprintf "E17 FAIL: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ E18 *)

(* --check-mvcc turns E18 into a pass/fail gate (CI): at 8 concurrent
   committers, group commit must cut fsyncs per transaction by at least
   this factor against one-fsync-per-commit durability. *)
let check_mvcc = ref false
let mvcc_fsync_factor = 4.0

let e18 () =
  section "E18  MVCC snapshots and group commit: concurrent throughput"
    "Beyond the paper: the version chain is naturally multi-version, so\n\
     reads need no locks once pinned.  Part 1 scales reader domains, each\n\
     querying its own snapshot while a writer commits sustained updates.\n\
     Part 2 measures durability cost at 8 concurrent committers: one\n\
     fsync per commit vs the group-commit leader flushing whole batches.";
  let parse = Txq_xml.Parse.parse_exn in
  (* Part 1: reader-domain scaling against a live writer *)
  let sp =
    spec
      ~documents:(if !smoke then 6 else 24)
      ~versions:(if !smoke then 6 else 10)
      ~restaurants:(if !smoke then 5 else 10)
      ()
  in
  let pattern = Pattern.of_path_exn "/guide/restaurant/name" in
  let mid = Load.midpoint_ts sp in
  let quota = if !smoke then 25 else 120 in
  let payload i =
    parse
      (Printf.sprintf
         "<guide><restaurant><name>bench</name><price>%d</price></restaurant></guide>"
         (10 + (i mod 7)))
  in
  let run_readers readers =
    let db = Load.load_db sp in
    let stop = Atomic.make false in
    let commits = Atomic.make 0 in
    let writer =
      Domain.spawn (fun () ->
          let i = ref 0 in
          while not (Atomic.get stop) do
            ignore (Db.update_document db ~url:url0 (payload !i));
            incr i;
            Atomic.incr commits
          done)
    in
    let reader () =
      let snap = Db.snapshot db in
      for _ = 1 to quota do
        ignore (Scan.tpattern_scan_all snap pattern);
        ignore (Scan.tpattern_scan snap pattern mid)
      done;
      Db.release snap
    in
    let t0 = Unix.gettimeofday () in
    let hs = Array.init readers (fun _ -> Domain.spawn reader) in
    Array.iter Domain.join hs;
    let wall_s = Unix.gettimeofday () -. t0 in
    Atomic.set stop true;
    Domain.join writer;
    let queries = readers * quota * 2 in
    (wall_s, float queries /. wall_s, Atomic.get commits)
  in
  let reader_rows =
    List.map (fun r -> (r, run_readers r)) [ 1; 2; 4 ]
  in
  let _, (base_wall, base_qps, _) = List.hd reader_rows in
  ignore base_wall;
  print_table
    ~title:
      (Printf.sprintf
         "E18a: snapshot readers vs live writer (%d queries/reader)"
         (quota * 2))
    ~columns:[ "readers"; "wall"; "queries/s"; "scaling"; "writer commits" ]
    (List.map
       (fun (r, (wall_s, qps, commits)) ->
         [
           string_of_int r;
           Printf.sprintf "%.1f ms" (wall_s *. 1e3);
           Printf.sprintf "%.0f" qps;
           Printf.sprintf "%.2fx" (qps /. base_qps);
           string_of_int commits;
         ])
       reader_rows);
  record_json "reader_scaling"
    (Harness.Json.Arr
       (List.map
          (fun (r, (wall_s, qps, commits)) ->
            Harness.Json.Obj
              [
                ("readers", Harness.Json.Int r);
                ("wall_s", Harness.Json.Float wall_s);
                ("queries_per_s", Harness.Json.Float qps);
                ("writer_commits", Harness.Json.Int commits);
              ])
          reader_rows));
  (* Part 2: fsyncs per transaction, 8 concurrent committers *)
  let committers = 8 in
  let commits_each = if !smoke then 4 else 16 in
  let run_committers config =
    let db = Db.create ~config () in
    let worker k () =
      let url = Printf.sprintf "doc-%d" k in
      ignore (Db.insert_document db ~url (payload k));
      for i = 1 to commits_each - 1 do
        ignore (Db.update_document db ~url (payload ((k * 31) + i)))
      done
    in
    let t0 = Unix.gettimeofday () in
    let hs = Array.init committers (fun k -> Domain.spawn (worker k)) in
    Array.iter Domain.join hs;
    let wall_s = Unix.gettimeofday () -. t0 in
    let txns = (Db.stats db).Db.commits in
    let fsyncs = (Db.io_stats db).Txq_store.Io_stats.fsyncs in
    (wall_s, txns, fsyncs, float fsyncs /. float txns)
  in
  let off = run_committers (Config.durable Config.default) in
  let on =
    run_committers
      (Config.with_group_commit ~window_us:2000 (Config.durable Config.default))
  in
  let row name (wall_s, txns, fsyncs, per_txn) =
    [
      name; string_of_int txns; string_of_int fsyncs;
      Printf.sprintf "%.2f" per_txn; Printf.sprintf "%.1f ms" (wall_s *. 1e3);
    ]
  in
  print_table
    ~title:
      (Printf.sprintf "E18b: durability cost at %d concurrent committers"
         committers)
    ~columns:[ "mode"; "commits"; "fsyncs"; "fsyncs/txn"; "wall" ]
    [ row "per-commit fsync" off; row "group commit (2ms window)" on ];
  let (_, _, _, off_rate) = off and (_, _, _, on_rate) = on in
  let factor = off_rate /. on_rate in
  record_json "smoke" (Harness.Json.Bool !smoke);
  record_json "fsyncs_per_txn_off" (Harness.Json.Float off_rate);
  record_json "fsyncs_per_txn_on" (Harness.Json.Float on_rate);
  record_json "fsync_reduction" (Harness.Json.Float factor);
  record_json "fsync_factor_required" (Harness.Json.Float mvcc_fsync_factor);
  if !check_mvcc then
    if factor < mvcc_fsync_factor then begin
      Printf.eprintf
        "E18 FAIL: group commit reduced fsyncs/txn only %.1fx (%.2f -> %.2f), \
         need >= %.1fx\n"
        factor off_rate on_rate mvcc_fsync_factor;
      exit 1
    end
    else
      Printf.printf "  group-commit check ok: fsyncs/txn down %.1fx >= %.1fx\n"
        factor mvcc_fsync_factor

(* --check-serve turns E19 into a pass/fail gate (CI): an 8-client
   closed-loop mixed workload over real sockets must complete with zero
   error replies, zero dropped connections, zero leaked snapshot pins,
   and at least [serve_min_qps] sustained. *)
let check_serve = ref false
let serve_min_qps = 50.0

let e19 () =
  section "E19  txmldbd: sustained QPS and connection churn over the wire"
    "Serving the statement language to concurrent clients: each request\n\
     pins an MVCC snapshot on a reader domain and streams its result in\n\
     bounded chunks while writes funnel through the group-committed\n\
     writer.  Part 1 scales closed-loop clients; part 2 adds connection\n\
     churn (drop and redial every few requests); part 3 offers a fixed\n\
     open-loop arrival rate and reads the latency tail.";
  let module Server = Txq_server.Server in
  let module Loadgen = Txq_server.Loadgen in
  let sp =
    spec
      ~documents:(if !smoke then 4 else 12)
      ~versions:(if !smoke then 4 else 8)
      ~restaurants:(if !smoke then 5 else 10)
      ()
  in
  let ops = if !smoke then 25 else 150 in
  let with_server readers f =
    let db = Load.load_db sp in
    let server =
      Server.start ~config:{ Server.default_config with Server.readers } db
    in
    let r = f (Server.port server) in
    let leaked = Server.stop server in
    (r, leaked)
  in
  (* Part 1: closed-loop client scaling *)
  let run_clients clients =
    with_server (Stdlib.max 4 clients) @@ fun port ->
    Loadgen.closed_loop ~port ~clients ~ops_per_client:ops ~spec:sp
      ~seed:2026 ()
  in
  let client_rows =
    List.map (fun c -> (c, run_clients c)) [ 1; 2; 4; 8 ]
  in
  let pct r p = Loadgen.percentile r.Loadgen.r_latencies_us p in
  print_table
    ~title:(Printf.sprintf "E19a: closed-loop clients (%d ops each)" ops)
    ~columns:
      [ "clients"; "qps"; "p50"; "p99"; "errors"; "disconnects"; "leaked" ]
    (List.map
       (fun (c, (r, leaked)) ->
         [
           string_of_int c;
           Printf.sprintf "%.0f" r.Loadgen.r_qps;
           Printf.sprintf "%.0f us" (pct r 50.0);
           Printf.sprintf "%.0f us" (pct r 99.0);
           string_of_int r.Loadgen.r_errors;
           string_of_int r.Loadgen.r_disconnects;
           string_of_int leaked;
         ])
       client_rows);
  record_json "closed_loop"
    (Harness.Json.Arr
       (List.map
          (fun (c, (r, leaked)) ->
            Harness.Json.Obj
              [
                ("clients", Harness.Json.Int c);
                ("qps", Harness.Json.Float r.Loadgen.r_qps);
                ("p50_us", Harness.Json.Float (pct r 50.0));
                ("p99_us", Harness.Json.Float (pct r 99.0));
                ("ops", Harness.Json.Int r.Loadgen.r_ops);
                ("errors", Harness.Json.Int r.Loadgen.r_errors);
                ("disconnects", Harness.Json.Int r.Loadgen.r_disconnects);
                ("leaked_pins", Harness.Json.Int leaked);
              ])
          client_rows));
  (* Part 2: connection churn — every client redials every 5 requests *)
  let churn, churn_leaked =
    with_server 8 @@ fun port ->
    Loadgen.closed_loop ~port ~clients:8 ~ops_per_client:ops ~spec:sp
      ~reconnect_every:5 ~seed:2027 ()
  in
  print_table ~title:"E19b: connection churn (8 clients, redial every 5)"
    ~columns:[ "qps"; "p99"; "errors"; "disconnects"; "leaked" ]
    [
      [
        Printf.sprintf "%.0f" churn.Loadgen.r_qps;
        Printf.sprintf "%.0f us" (pct churn 99.0);
        string_of_int churn.Loadgen.r_errors;
        string_of_int churn.Loadgen.r_disconnects;
        string_of_int churn_leaked;
      ];
    ];
  record_json "churn"
    (Harness.Json.Obj
       [
         ("qps", Harness.Json.Float churn.Loadgen.r_qps);
         ("p99_us", Harness.Json.Float (pct churn 99.0));
         ("errors", Harness.Json.Int churn.Loadgen.r_errors);
         ("disconnects", Harness.Json.Int churn.Loadgen.r_disconnects);
         ("leaked_pins", Harness.Json.Int churn_leaked);
       ]);
  (* Part 3: open loop at a fixed offered rate — latency, not throughput *)
  let rate = if !smoke then 40.0 else 150.0 in
  let duration = if !smoke then 1.0 else 4.0 in
  let open_r, open_leaked =
    with_server 8 @@ fun port ->
    Loadgen.open_loop ~port ~conns:4 ~rate_per_s:rate ~duration_s:duration
      ~spec:sp ~seed:2028 ()
  in
  print_table
    ~title:
      (Printf.sprintf "E19c: open loop at %.0f req/s offered (%.0f s)" rate
         duration)
    ~columns:[ "achieved qps"; "p50"; "p99"; "errors"; "leaked" ]
    [
      [
        Printf.sprintf "%.0f" open_r.Loadgen.r_qps;
        Printf.sprintf "%.0f us" (pct open_r 50.0);
        Printf.sprintf "%.0f us" (pct open_r 99.0);
        string_of_int open_r.Loadgen.r_errors;
        string_of_int open_leaked;
      ];
    ];
  record_json "open_loop"
    (Harness.Json.Obj
       [
         ("offered_rate", Harness.Json.Float rate);
         ("qps", Harness.Json.Float open_r.Loadgen.r_qps);
         ("p50_us", Harness.Json.Float (pct open_r 50.0));
         ("p99_us", Harness.Json.Float (pct open_r 99.0));
         ("errors", Harness.Json.Int open_r.Loadgen.r_errors);
         ("leaked_pins", Harness.Json.Int open_leaked);
       ]);
  record_json "smoke" (Harness.Json.Bool !smoke);
  record_json "min_qps_gate" (Harness.Json.Float serve_min_qps);
  if !check_serve then begin
    let eight, eight_leaked =
      try List.assoc 8 client_rows with Not_found -> (churn, churn_leaked)
    in
    if
      eight.Loadgen.r_errors > 0
      || eight.Loadgen.r_disconnects > 0
      || eight_leaked > 0 || churn.Loadgen.r_errors > 0
      || churn.Loadgen.r_disconnects > 0 || churn_leaked > 0
    then begin
      Printf.eprintf
        "E19 FAIL: errors=%d/%d disconnects=%d/%d leaked=%d/%d (plain/churn)\n"
        eight.Loadgen.r_errors churn.Loadgen.r_errors
        eight.Loadgen.r_disconnects churn.Loadgen.r_disconnects eight_leaked
        churn_leaked;
      exit 1
    end
    else if eight.Loadgen.r_qps < serve_min_qps then begin
      Printf.eprintf "E19 FAIL: %.0f qps at 8 clients, need >= %.0f\n"
        eight.Loadgen.r_qps serve_min_qps;
      exit 1
    end
    else
      Printf.printf
        "  serve check ok: %.0f qps >= %.0f, no errors, no leaked pins\n"
        eight.Loadgen.r_qps serve_min_qps
  end

(* ------------------------------------------------------------------ E20 *)

module Planner = Txq_planner.Planner

(* --check-plan turns E20 into a pass/fail gate (CI): leg reordering must
   win at least [plan_skew_min] on the skewed-selectivity multiway join;
   across the statement corpus the planner must never be more than
   [plan_overhead_max] slower than literal evaluation (plus a fixed
   [plan_noise_us] timer-noise allowance on the repeated batch); and every
   scan estimate must land within [plan_accuracy_k] of the measured rows
   (smoothed: max((est+1)/(act+1), (act+1)/(est+1))). *)
let check_plan = ref false
let plan_skew_min = 2.0
let plan_overhead_max = 1.10
let plan_noise_us = 150.0
let plan_accuracy_k = 32.0

let e20 () =
  section "E20  Cost-based planner: skew win, corpus overhead, accuracy"
    "Beyond the paper (motivated by its Section 1 native-vs-stratum\n\
     argument): the planner orders multiway-join legs by ascending\n\
     selectivity from live FTI counters.  (a) a skewed-selectivity\n\
     conjunction - eight ubiquitous word tests and one needle, written\n\
     needle-last - planner-on vs planner-off; (b) the full statement\n\
     corpus planner-on vs planner-off (the planner must never lose);\n\
     (c) scan estimates vs measured rows per temporal mode.";
  let failures = ref [] in
  (* -- (a) skewed-selectivity multiway join ------------------------------ *)
  let n_common = 8 in
  let skew_doc ~restaurants ~needle_at d =
    let buf = Buffer.create (restaurants * 96) in
    Buffer.add_string buf "<guide>";
    for i = 0 to restaurants - 1 do
      Buffer.add_string buf "<restaurant>";
      for k = 0 to n_common - 1 do
        Buffer.add_string buf (Printf.sprintf "<f%d>common%d</f%d>" k k k)
      done;
      if d = 0 && i = needle_at then
        Buffer.add_string buf "<fx>needle</fx>";
      Buffer.add_string buf (Printf.sprintf "<id>r%d</id>" i);
      Buffer.add_string buf "</restaurant>"
    done;
    Buffer.add_string buf "</guide>";
    Txq_xml.Parse.parse_exn (Buffer.contents buf)
  in
  let load_skew ~planner ~restaurants =
    let db =
      Db.create ~config:(Config.with_planner planner Config.default) ()
    in
    for d = 0 to 3 do
      ignore
        (Db.insert_document db
           ~url:(Printf.sprintf "skew-%d" d)
           ~ts:(Timestamp.of_date ~day:(d + 1) ~month:6 ~year:2001)
           (skew_doc ~restaurants ~needle_at:(restaurants / 2) d))
    done;
    db
  in
  (* written needle-first: pushdown grafting reverses the conjunct list,
     so the literal plan constrains every common leg before the needle *)
  let skew_query =
    {|SELECT R/id FROM doc("skew-0")//restaurant R WHERE R/fx = "needle"|}
    ^ String.concat ""
        (List.init n_common (fun k ->
             Printf.sprintf {| AND R/f%d = "common%d"|} k k))
  in
  let skew_sizes = if !smoke then [ 60; 150 ] else [ 100; 400 ] in
  let skew_json = ref [] in
  let skew_rows =
    List.map
      (fun restaurants ->
        let db_on = load_skew ~planner:true ~restaurants in
        let db_off = load_skew ~planner:false ~restaurants in
        let out_on = Txq_xml.Print.to_string (run_q db_on skew_query) in
        let out_off = Txq_xml.Print.to_string (run_q db_off skew_query) in
        if not (String.equal out_on out_off) then
          failures :=
            Printf.sprintf "skew @ %d: planner-on result diverged" restaurants
            :: !failures;
        let on_us = time_us ~runs:7 (fun () -> run_q db_on skew_query) in
        let off_us = time_us ~runs:7 (fun () -> run_q db_off skew_query) in
        let speedup = off_us /. on_us in
        skew_json :=
          Harness.Json.Obj
            [
              ("restaurants", Harness.Json.Int restaurants);
              ("literal_us", Harness.Json.Float off_us);
              ("planned_us", Harness.Json.Float on_us);
              ("speedup", Harness.Json.Float speedup);
            ]
          :: !skew_json;
        (restaurants, speedup,
         [
           string_of_int restaurants;
           fmt_us off_us;
           fmt_us on_us;
           Printf.sprintf "%.1fx" speedup;
         ]))
      skew_sizes
  in
  print_table
    ~title:
      (Printf.sprintf
         "E20a: skewed conjunction (%d common legs + 1 needle, written last)"
         n_common)
    ~columns:[ "restaurants/doc"; "literal"; "planned"; "speedup" ]
    (List.map (fun (_, _, r) -> r) skew_rows);
  (match List.rev skew_rows with
   | (restaurants, speedup, _) :: _ when speedup < plan_skew_min ->
     failures :=
       Printf.sprintf "skew @ %d: %.2fx < %.1fx leg-reorder win" restaurants
         speedup plan_skew_min
       :: !failures
   | _ -> ());
  (* -- (b) corpus overhead: the planner must never lose ------------------ *)
  let sp =
    spec
      ~documents:(if !smoke then 2 else 4)
      ~versions:(if !smoke then 6 else 10)
      ~restaurants:(if !smoke then 8 else 20)
      ()
  in
  let db_on = Load.load_db ~config:(Config.with_planner true Config.default) sp in
  let db_off =
    Load.load_db ~config:(Config.with_planner false Config.default) sp
  in
  (* floored to midnight: the statement grammar takes dates, not instants *)
  let mid_ts =
    Timestamp.of_seconds
      (Timestamp.to_seconds (Load.midpoint_ts sp) / 86_400 * 86_400)
  in
  let mid = Timestamp.to_string mid_ts in
  let name = Load.target_name sp in
  let corpus =
    [
      ("snapshot scan",
       Printf.sprintf {|SELECT R FROM doc("%s")[%s]/guide/restaurant R|} url0
         mid);
      ("current count",
       Printf.sprintf {|SELECT COUNT(R) FROM doc("%s")[NOW]/guide/restaurant R|}
         url0);
      ("pushdown",
       Printf.sprintf
         {|SELECT R/price FROM doc("%s")/guide/restaurant R WHERE R/name = "%s"|}
         url0 name);
      ("history pushdown",
       Printf.sprintf
         {|SELECT TIME(R), R/price FROM doc("%s")[EVERY]/guide/restaurant R WHERE R/name = "%s"|}
         url0 name);
      ("absent word",
       Printf.sprintf
         {|SELECT R FROM doc("%s")//restaurant R WHERE R/name = "xyzzyword"|}
         url0);
      ("lifetimes",
       Printf.sprintf
         {|SELECT CREATE TIME(R), DELETE TIME(R) FROM doc("%s")[EVERY]//review R|}
         url0);
      ("collection count", {|SELECT COUNT(R) FROM collection("*")[EVERY]//name R|});
      ("algebra semijoin",
       Printf.sprintf {|doc("%s")//name SEMIJOIN ON ANCESTOR doc("%s")//review|}
         url0 url0);
      ("algebra except",
       Printf.sprintf {|doc("%s")//name EXCEPT doc("%s")//nosuchtag|} url0 url0);
      ("algebra count", {|COUNT BY DOC (collection("*")//name)|});
    ]
  in
  let reps = if !smoke then 8 else 16 in
  (* paired samples — planner-on and planner-off batches interleaved in
     time so clock drift and GC pressure hit both sides alike; the gate
     reads the median of per-pair ratios *)
  let sample_us f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  let paired f_on f_off =
    for _ = 1 to 2 do
      f_on ();
      f_off ()
    done;
    let n = 9 in
    let ons = Array.init n (fun _ -> 0.) and offs = Array.init n (fun _ -> 0.) in
    for i = 0 to n - 1 do
      ons.(i) <- sample_us f_on;
      offs.(i) <- sample_us f_off
    done;
    let med a =
      let s = Array.copy a in
      Array.sort compare s;
      s.(n / 2)
    in
    (med ons, med offs, med (Array.init n (fun i -> ons.(i) /. offs.(i))))
  in
  let corpus_json = ref [] in
  let corpus_rows =
    List.map
      (fun (label, q) ->
        let out_on = Txq_xml.Print.to_string (run_q db_on q)
        and out_off = Txq_xml.Print.to_string (run_q db_off q) in
        if not (String.equal out_on out_off) then
          failures :=
            Printf.sprintf "corpus %S: planner-on result diverged" label
            :: !failures;
        let batch db = fun () -> for _ = 1 to reps do ignore (run_q db q) done in
        let on_us, off_us, ratio = paired (batch db_on) (batch db_off) in
        if
          !check_plan && ratio > plan_overhead_max
          && on_us > off_us +. plan_noise_us
        then
          failures :=
            Printf.sprintf "corpus %S: planner %.2fx slower than literal" label
              ratio
            :: !failures;
        corpus_json :=
          Harness.Json.Obj
            [
              ("statement", Harness.Json.Str label);
              ("reps", Harness.Json.Int reps);
              ("planner_us", Harness.Json.Float on_us);
              ("literal_us", Harness.Json.Float off_us);
              ("ratio", Harness.Json.Float ratio);
            ]
          :: !corpus_json;
        [
          label;
          fmt_us (off_us /. float_of_int reps);
          fmt_us (on_us /. float_of_int reps);
          Printf.sprintf "%.2fx" ratio;
        ])
      corpus
  in
  print_table
    ~title:
      (Printf.sprintf "E20b: statement corpus, planner on vs off (x%d reps)"
         reps)
    ~columns:[ "statement"; "literal"; "planner"; "on/off" ]
    corpus_rows;
  (* -- (c) estimation accuracy ------------------------------------------- *)
  let planner = Planner.create db_on in
  let acc_paths =
    [ "/guide/restaurant"; "//name"; "//price"; "//review"; "//address" ]
  in
  let acc_json = ref [] in
  let acc_rows =
    List.concat_map
      (fun path ->
        let pattern = Pattern.of_path_exn path in
        List.map
          (fun (mode, actual) ->
            let est = Planner.est_scan planner mode pattern in
            let err =
              Stdlib.max
                (float_of_int (est + 1) /. float_of_int (actual + 1))
                (float_of_int (actual + 1) /. float_of_int (est + 1))
            in
            if !check_plan && err > plan_accuracy_k then
              failures :=
                Printf.sprintf "accuracy %s [%s]: est %d vs actual %d (%.1fx)"
                  path
                  (Planner.mode_to_string mode)
                  est actual err
                :: !failures;
            acc_json :=
              Harness.Json.Obj
                [
                  ("path", Harness.Json.Str path);
                  ("mode", Harness.Json.Str (Planner.mode_to_string mode));
                  ("est", Harness.Json.Int est);
                  ("actual", Harness.Json.Int actual);
                  ("err", Harness.Json.Float err);
                ]
              :: !acc_json;
            [
              path;
              Planner.mode_to_string mode;
              string_of_int est;
              string_of_int actual;
              Printf.sprintf "%.1fx" err;
            ])
          [
            (Planner.Current, List.length (Scan.pattern_scan db_on pattern));
            (Planner.At,
             List.length (Scan.tpattern_scan db_on pattern mid_ts));
            (Planner.Every, List.length (Scan.tpattern_scan_all db_on pattern));
          ])
      acc_paths
  in
  print_table
    ~title:
      (Printf.sprintf "E20c: scan estimate vs measured rows (gate: %.0fx)"
         plan_accuracy_k)
    ~columns:[ "path"; "mode"; "est"; "actual"; "err" ]
    acc_rows;
  Harness.record_json "smoke" (Harness.Json.Bool !smoke);
  Harness.record_json "skew" (Harness.Json.Arr (List.rev !skew_json));
  Harness.record_json "corpus" (Harness.Json.Arr (List.rev !corpus_json));
  Harness.record_json "accuracy" (Harness.Json.Arr (List.rev !acc_json));
  if !check_plan then
    match List.rev !failures with
    | [] ->
      Printf.printf
        "  plan check ok: >=%.1fx on skew, <=%.2fx corpus overhead, \
         estimates within %.0fx\n"
        plan_skew_min plan_overhead_max plan_accuracy_k
    | fs ->
      List.iter (fun f -> Printf.eprintf "E20 FAIL: %s\n" f) fs;
      exit 1

(* ------------------------------------------------------------------ E21 *)

(* --check-ship turns E21 into a pass/fail gate (CI): replicas must reach
   lag 0 at every offered write rate, the restore must land exactly the
   primary's commit count, and the scale-out legs must finish with no
   errors, no disconnects and no leaked pins on either node. *)
let check_ship = ref false

let e21 () =
  section "E21  Journal shipping: catch-up lag, restore, read scale-out"
    "A primary streams committed journal records to replicas (Db.ship /\n\
     Replay).  Part 1 follows a live writer at several offered commit\n\
     rates and reads the lag profile; part 2 measures point-in-time\n\
     restore throughput; part 3 compares read QPS of one server against\n\
     a primary+replica pair serving the same read-only workload over\n\
     sockets.";
  let module Server = Txq_server.Server in
  let module Client = Txq_server.Client in
  let module Loadgen = Txq_server.Loadgen in
  let module Mixed = Txq_workload.Mixed in
  let durable = Config.durable Config.default in
  let parse = Txq_xml.Parse.parse_exn in
  let sp =
    spec
      ~documents:(if !smoke then 4 else 10)
      ~versions:(if !smoke then 3 else 6)
      ~restaurants:(if !smoke then 5 else 10)
      ()
  in
  let failures = ref [] in
  let gate fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  (* Part 1: live follow — a writer commits at an offered rate while a
     replica polls; lag is sampled after every pull. *)
  let commits = if !smoke then 60 else 400 in
  let follow offered_delay_s =
    let primary = Load.load_db ~config:durable sp in
    let r = Db.Replay.create ~config:durable () in
    let writer_done = Atomic.make false in
    let writer =
      Thread.create
        (fun () ->
          for i = 1 to commits do
            ignore
              (Db.update_document primary
                 ~url:(Load.url_of (i mod sp.Load.documents))
                 (parse (Printf.sprintf "<guide><burst>%d</burst></guide>" i)));
            if offered_delay_s > 0.0 then Thread.delay offered_delay_s
          done;
          Atomic.set writer_done true)
        ()
    in
    let max_lag = ref 0 in
    let pulls = ref 0 in
    let t0 = Unix.gettimeofday () in
    let rec follow_loop () =
      let from = Db.Replay.applied r in
      (* lag as seen at pull time, before this batch is applied *)
      let backlog = Db.durable_records primary - from in
      if backlog > !max_lag then max_lag := backlog;
      let batch = Db.ship primary ~from () in
      List.iter (Db.Replay.apply r) batch;
      incr pulls;
      let lag = Db.durable_records primary - Db.Replay.applied r in
      if not (Atomic.get writer_done && lag = 0) then begin
        if batch = [] then Thread.delay 0.0002;
        follow_loop ()
      end
    in
    follow_loop ();
    let elapsed = Unix.gettimeofday () -. t0 in
    Thread.join writer;
    let applied = Db.Replay.applied r in
    let final_lag = Db.durable_records primary - applied in
    if !check_ship && final_lag <> 0 then
      gate "follow (delay %.4fs): final lag %d" offered_delay_s final_lag;
    (applied, !max_lag, final_lag, !pulls, float_of_int applied /. elapsed)
  in
  let follow_rows =
    List.map
      (fun (label, delay) -> (label, follow delay))
      [ ("unthrottled", 0.0); ("~2000/s", 0.0005); ("~500/s", 0.002) ]
  in
  print_table
    ~title:(Printf.sprintf "E21a: replica follows a live writer (%d commits)" commits)
    ~columns:[ "offered rate"; "applied"; "max lag"; "final lag"; "pulls"; "apply/s" ]
    (List.map
       (fun (label, (applied, max_lag, final_lag, pulls, rate)) ->
         [
           label; string_of_int applied; string_of_int max_lag;
           string_of_int final_lag; string_of_int pulls;
           Printf.sprintf "%.0f" rate;
         ])
       follow_rows);
  record_json "follow"
    (Harness.Json.Arr
       (List.map
          (fun (label, (applied, max_lag, final_lag, pulls, rate)) ->
            Harness.Json.Obj
              [
                ("offered", Harness.Json.Str label);
                ("applied", Harness.Json.Int applied);
                ("max_lag", Harness.Json.Int max_lag);
                ("final_lag", Harness.Json.Int final_lag);
                ("pulls", Harness.Json.Int pulls);
                ("apply_per_s", Harness.Json.Float rate);
              ])
          follow_rows));
  (* Part 2: point-in-time restore throughput at the full horizon. *)
  let restore_rows =
    List.map
      (fun versions ->
        let rsp = { sp with Load.versions } in
        let primary = Load.load_db ~config:durable rsp in
        let records = Db.durable_records primary in
        let restored = ref None in
        let us =
          time_us ~warmup:1 ~runs:(if !smoke then 3 else 5) (fun () ->
              restored := Some (Db.restore_as_of primary ~as_of:(Db.now primary)))
        in
        let restored = Option.get !restored in
        if
          !check_ship
          && (Db.stats restored).Db.commits <> (Db.stats primary).Db.commits
        then
          gate "restore at %d versions: %d commits, primary has %d" versions
            (Db.stats restored).Db.commits (Db.stats primary).Db.commits;
        (versions, records, us, float_of_int records /. (us /. 1e6)))
      (if !smoke then [ 3; 6 ] else [ 4; 8; 16 ])
  in
  print_table ~title:"E21b: restore --as-of now (full history clone)"
    ~columns:[ "versions/doc"; "records"; "restore time"; "records/s" ]
    (List.map
       (fun (v, records, us, rate) ->
         [
           string_of_int v; string_of_int records; fmt_us us;
           Printf.sprintf "%.0f" rate;
         ])
       restore_rows);
  record_json "restore"
    (Harness.Json.Arr
       (List.map
          (fun (v, records, us, rate) ->
            Harness.Json.Obj
              [
                ("versions", Harness.Json.Int v);
                ("records", Harness.Json.Int records);
                ("restore_us", Harness.Json.Float us);
                ("records_per_s", Harness.Json.Float rate);
              ])
          restore_rows));
  (* Part 3: read scale-out — the same read-only closed loop against one
     server, then split across a primary+replica pair. *)
  let clients = if !smoke then 4 else 8 in
  let ops = if !smoke then 20 else 100 in
  let readers = Stdlib.max 4 (clients / 2) in
  let primary = Load.load_db ~config:durable sp in
  let pserver =
    Server.start ~config:{ Server.default_config with Server.readers } primary
  in
  let pport = Server.port pserver in
  let solo =
    Loadgen.closed_loop ~port:pport ~clients ~ops_per_client:ops
      ~mix:Mixed.read_only_mix ~spec:sp ~seed:2101 ()
  in
  (* replica catches up over the wire, then serves half the clients *)
  let rp = Db.Replay.create ~config:durable () in
  let puller = Client.connect ~port:pport () in
  let rec clone () =
    match Client.ship puller ~from:(Db.Replay.applied rp) () with
    | Ok ([], _) -> ()
    | Ok (shipments, _) ->
      List.iter (Db.Replay.apply rp) shipments;
      clone ()
    | Error (code, msg) -> failwith (Printf.sprintf "ship error %d: %s" code msg)
  in
  clone ();
  Client.close puller;
  let rserver =
    Server.start
      ~config:{ Server.default_config with Server.readers }
      (Db.Replay.db rp)
  in
  let rport = Server.port rserver in
  let half = Stdlib.max 1 (clients / 2) in
  let primary_half = ref None and replica_half = ref None in
  let t0 = Unix.gettimeofday () in
  let th_p =
    Thread.create
      (fun () ->
        primary_half :=
          Some
            (Loadgen.closed_loop ~port:pport ~clients:half ~ops_per_client:ops
               ~mix:Mixed.read_only_mix ~spec:sp ~seed:2102 ()))
      ()
  and th_r =
    Thread.create
      (fun () ->
        replica_half :=
          Some
            (Loadgen.closed_loop ~port:rport ~clients:half ~ops_per_client:ops
               ~mix:Mixed.read_only_mix ~spec:sp ~seed:2103 ()))
      ()
  in
  Thread.join th_p;
  Thread.join th_r;
  let pair_elapsed = Unix.gettimeofday () -. t0 in
  let ph = Option.get !primary_half and rh = Option.get !replica_half in
  let pair_qps = float_of_int (ph.Loadgen.r_ops + rh.Loadgen.r_ops) /. pair_elapsed in
  (* one probe statement must render byte-identically on both nodes *)
  let probe =
    Printf.sprintf {|SELECT R/name FROM doc("%s")//restaurant R|} url0
  in
  let body_of port =
    let c = Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    match Client.query c probe with
    | Ok reply -> reply.Client.body
    | Error (code, msg) -> failwith (Printf.sprintf "probe error %d: %s" code msg)
  in
  let identical = String.equal (body_of pport) (body_of rport) in
  let p_leaked = Server.stop pserver in
  let r_leaked = Server.stop rserver in
  print_table
    ~title:
      (Printf.sprintf "E21c: read-only closed loop (%d clients, %d ops each)"
         clients ops)
    ~columns:[ "topology"; "qps"; "errors"; "disconnects"; "leaked" ]
    [
      [
        "single server"; Printf.sprintf "%.0f" solo.Loadgen.r_qps;
        string_of_int solo.Loadgen.r_errors;
        string_of_int solo.Loadgen.r_disconnects; string_of_int p_leaked;
      ];
      [
        "primary+replica"; Printf.sprintf "%.0f" pair_qps;
        string_of_int (ph.Loadgen.r_errors + rh.Loadgen.r_errors);
        string_of_int (ph.Loadgen.r_disconnects + rh.Loadgen.r_disconnects);
        string_of_int r_leaked;
      ];
    ];
  record_json "scale_out"
    (Harness.Json.Obj
       [
         ("clients", Harness.Json.Int clients);
         ("solo_qps", Harness.Json.Float solo.Loadgen.r_qps);
         ("pair_qps", Harness.Json.Float pair_qps);
         ("probe_identical", Harness.Json.Bool identical);
         ("errors",
          Harness.Json.Int
            (solo.Loadgen.r_errors + ph.Loadgen.r_errors + rh.Loadgen.r_errors));
         ("leaked_pins", Harness.Json.Int (p_leaked + r_leaked));
       ]);
  record_json "smoke" (Harness.Json.Bool !smoke);
  if !check_ship then begin
    if not identical then gate "probe result differs between primary and replica";
    if solo.Loadgen.r_errors + ph.Loadgen.r_errors + rh.Loadgen.r_errors > 0 then
      gate "scale-out legs answered errors";
    if solo.Loadgen.r_disconnects + ph.Loadgen.r_disconnects
       + rh.Loadgen.r_disconnects > 0
    then gate "scale-out legs dropped connections";
    if p_leaked + r_leaked > 0 then
      gate "%d leaked pins across the pair" (p_leaked + r_leaked);
    match !failures with
    | [] -> Printf.printf "  ship check ok: lag 0, restore exact, pair clean\n"
    | fs ->
      List.iter (fun f -> Printf.eprintf "E21 FAIL: %s\n" f) fs;
      exit 1
  end

(* ------------------------------------------------------------------ main *)

(* --check-codec turns E22 into a pass/fail gate (CI), see bench/e22.ml. *)
let check_codec = ref false

(* --check-fti turns E23 into a pass/fail gate (CI), see bench/e23.ml. *)
let check_fti = ref false

(* --check-diff turns E24 into a pass/fail gate (CI), see bench/e24.ml. *)
let check_diff = ref false

(* --check-delta-cache turns E25 into a pass/fail gate (CI), see
   bench/e25.ml. *)
let check_delta_cache = ref false

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21);
    ("e22", fun () -> E22.run ~smoke:!smoke ~check:!check_codec);
    ("e23", fun () -> E23.run ~smoke:!smoke ~check:!check_fti);
    ("e24", fun () -> E24.run ~smoke:!smoke ~check:!check_diff);
    ("e25", fun () -> E25.run ~smoke:!smoke ~check:!check_delta_cache);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bechamel = List.mem "--bechamel" args in
  smoke := List.mem "--smoke" args;
  check_overhead := List.mem "--check-overhead" args;
  check_scan := List.mem "--check-scan" args;
  check_vacuum := List.mem "--check-vacuum" args;
  check_algebra := List.mem "--check-algebra" args;
  check_mvcc := List.mem "--check-mvcc" args;
  check_serve := List.mem "--check-serve" args;
  check_plan := List.mem "--check-plan" args;
  check_ship := List.mem "--check-ship" args;
  check_codec := List.mem "--check-codec" args;
  check_fti := List.mem "--check-fti" args;
  check_diff := List.mem "--check-diff" args;
  check_delta_cache := List.mem "--check-delta-cache" args;
  (* --trace FILE: stream every root span of the whole run as JSON lines.
     E14 manages its own sinks and ends with tracing off, so combining it
     with --trace in one invocation truncates the stream there. *)
  let trace_oc =
    let rec find = function
      | "--trace" :: path :: _ -> Some (open_out path)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (match trace_oc with
   | Some oc -> Txq_obs.Trace.set_sink (Some (Txq_obs.Trace.jsonl_sink oc))
   | None -> ());
  let rec drop_trace_arg = function
    | "--trace" :: _ :: rest -> drop_trace_arg rest
    | a :: rest -> a :: drop_trace_arg rest
    | [] -> []
  in
  let selected =
    List.filter
      (fun a -> not (String.length a > 1 && a.[0] = '-'))
      (drop_trace_arg args)
  in
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (name, _) -> List.mem name selected) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "unknown experiment(s); known: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  print_endline "Temporal XML query operators - experiment harness";
  print_endline "(shapes, not absolute numbers: the substrate is a simulator)";
  List.iter
    (fun (name, f) ->
      f ();
      Harness.write_json ~experiment:name)
    to_run;
  (match trace_oc with
   | Some oc ->
     Txq_obs.Trace.set_sink None;
     close_out oc
   | None -> ());
  if bechamel then Harness.run_bechamel ()
