(* txmldb — command-line driver for the temporal XML database.

   The store is an in-memory simulator, so every invocation builds its
   database first: either the paper's Figure 1 (--fig1) or a generated
   restaurant-guide workload (--docs/--versions/--seed), then runs the
   requested action against it. *)

open Cmdliner

(* --- shared workload/config options ------------------------------------ *)

let docs_t =
  Arg.(value & opt int 10 & info ["docs"] ~docv:"N" ~doc:"Generated guide documents.")

let versions_t =
  Arg.(value & opt int 20 & info ["versions"] ~docv:"N" ~doc:"Versions per document.")

let seed_t = Arg.(value & opt int 42 & info ["seed"] ~docv:"SEED" ~doc:"Workload seed.")

let fig1_t =
  Arg.(value & flag & info ["fig1"] ~doc:"Load the paper's Figure 1 instead of a generated workload.")

let snapshots_t =
  Arg.(value & opt (some int) None & info ["snapshot-every"] ~docv:"K"
         ~doc:"Store a full snapshot every K versions.")

let clustered_t =
  Arg.(value & flag & info ["clustered"] ~doc:"Cluster each document's blobs (default unclustered).")

let fti_mode_t =
  let modes =
    [ ("versions", Txq_db.Config.Fti_versions); ("deltas", Txq_db.Config.Fti_deltas);
      ("both", Txq_db.Config.Fti_both); ("none", Txq_db.Config.Fti_none) ]
  in
  Arg.(value & opt (enum modes) Txq_db.Config.Fti_versions
       & info ["fti"] ~docv:"MODE" ~doc:"Content index: $(b,versions), $(b,deltas), $(b,both) or $(b,none).")

let segment_postings_t =
  Arg.(value & opt int Txq_db.Config.default.Txq_db.Config.fti_segment_postings
       & info ["fti-segment-postings"] ~docv:"N"
           ~doc:"Freeze the FTI tail into immutable sorted segments once it \
                 holds N postings (0 disables freezing).")

let domains_t =
  Arg.(value & opt int 1 & info ["domains"] ~docv:"N"
         ~doc:"Worker domains for the pattern-scan operators (default 1; \
               results are identical for every value).")

let no_planner_t =
  Arg.(value & flag & info ["no-planner"]
         ~doc:"Disable the cost-based planner and evaluate every statement \
               literally as written (results are byte-identical either way).")

let config_of snapshots clustered fti_mode segment_postings domains no_planner =
  {
    Txq_db.Config.default with
    Txq_db.Config.snapshot_every = snapshots;
    placement = (if clustered then `Clustered 16 else `Unclustered);
    fti_mode;
    fti_segment_postings =
      (if segment_postings <= 0 then max_int else segment_postings);
    domains = (if domains < 1 then 1 else domains);
    planner = not no_planner;
  }

let fig1_url = "guide.com/restaurants.xml"

let build_db ~fig1 ~docs ~versions ~seed config =
  if fig1 then begin
    let ts = Txq_temporal.Timestamp.of_string in
    let xml = Txq_xml.Parse.parse_exn in
    let db = Txq_db.Db.create ~config () in
    ignore
      (Txq_db.Db.insert_document db ~url:fig1_url ~ts:(ts "01/01/2001")
         (xml "<guide><restaurant><name>Napoli</name><price>15</price></restaurant></guide>"));
    ignore
      (Txq_db.Db.update_document db ~url:fig1_url ~ts:(ts "15/01/2001")
         (xml "<guide><restaurant><name>Napoli</name><price>15</price></restaurant><restaurant><name>Akropolis</name><price>13</price></restaurant></guide>"));
    ignore
      (Txq_db.Db.update_document db ~url:fig1_url ~ts:(ts "31/01/2001")
         (xml "<guide><restaurant><name>Napoli</name><price>18</price></restaurant><restaurant><name>Akropolis</name><price>13</price></restaurant></guide>"));
    db
  end
  else
    Txq_workload.Load.load_db ~config
      { Txq_workload.Load.default_spec with
        Txq_workload.Load.seed; documents = docs; versions }

(* The db term yields a thunk, not a database: tracing sinks must be
   installed before the build runs so the build's own spans (docstore
   commits, FTI updates) reach the sink too. *)
let db_term =
  let make fig1 docs versions seed snapshots clustered fti_mode segment_postings
      domains no_planner () =
    build_db ~fig1 ~docs ~versions ~seed
      (config_of snapshots clustered fti_mode segment_postings domains no_planner)
  in
  Term.(const make $ fig1_t $ docs_t $ versions_t $ seed_t $ snapshots_t
        $ clustered_t $ fti_mode_t $ segment_postings_t $ domains_t
        $ no_planner_t)

(* --- tracing ---------------------------------------------------------------- *)

let trace_t =
  Arg.(value & opt (some string) None & info ["trace"] ~docv:"FILE"
         ~doc:"Write every span of the run (database build included) to \
               $(docv) as JSON lines.")

let with_tracing trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let oc = open_out path in
    Txq_obs.Trace.set_sink (Some (Txq_obs.Trace.jsonl_sink oc));
    Fun.protect
      ~finally:(fun () ->
        Txq_obs.Trace.set_sink None;
        close_out oc)
      f

(* --- query ---------------------------------------------------------------- *)

let query_cmd =
  let query_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Temporal query: either 'SELECT R FROM \
                 doc(\"…\")[26/01/2001]/guide/restaurant R' or an algebra \
                 expression over version sets such as 'doc(\"a\")//name \
                 EXCEPT doc(\"b\")//name', with UNION, INTERSECT, EXCEPT, \
                 JOIN/LEFTJOIN/SEMIJOIN/ANTIJOIN [ON DOC|ANCESTOR|ALWAYS] \
                 and COUNT [BY DOC].")
  in
  let explain_t =
    Arg.(value & flag & info ["explain"]
           ~doc:"Print the operator plan instead of running the query.")
  in
  let analyze_t =
    Arg.(value & flag & info ["explain-analyze"]
           ~doc:"Print the plan, then run the query under tracing and \
                 append per-operator call counts, wall time and IO \
                 counters.")
  in
  let run mk_db trace explain analyze query =
    with_tracing trace @@ fun () ->
    let db = mk_db () in
    if analyze then
      match Txq_query.Exec.explain_analyze_string db query with
      | Ok report ->
        print_string report;
        `Ok ()
      | Error e -> `Error (false, Txq_query.Exec.error_to_string e)
    else if explain then
      match Txq_query.Exec.explain_string db query with
      | Ok plan ->
        print_string plan;
        `Ok ()
      | Error e -> `Error (false, Txq_query.Exec.error_to_string e)
    else
      match Txq_query.Exec.run_string db query with
      | Ok result ->
        print_string (Txq_xml.Print.to_pretty result);
        `Ok ()
      | Error e -> `Error (false, Txq_query.Exec.error_to_string e)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a temporal query against the database.")
    Term.(ret (const run $ db_term $ trace_t $ explain_t $ analyze_t $ query_t))

(* --- history ---------------------------------------------------------------- *)

let history_cmd =
  let url_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"URL" ~doc:"Document URL.")
  in
  let run mk_db trace url =
    with_tracing trace @@ fun () ->
    let db = mk_db () in
    match Txq_db.Db.find_all db url with
    | [] -> `Error (false, Printf.sprintf "no document at %s" url)
    | incarnations ->
      List.iter
        (fun d ->
          let id = Txq_db.Docstore.doc_id d in
          Printf.printf "document %d (%s)\n" id url;
          (match Txq_db.Docstore.first_version d with
           | 0 -> ()
           | b -> Printf.printf "  (versions below %d vacuumed)\n" b);
          for v = Txq_db.Docstore.first_version d
              to Txq_db.Docstore.version_count d - 1 do
            let iv = Txq_db.Docstore.version_interval d v in
            Printf.printf "  v%-3d %s  %d-node tree\n" v
              (Txq_temporal.Interval.to_string iv)
              (Txq_vxml.Vnode.size (Txq_db.Db.reconstruct db id v))
          done;
          match Txq_db.Docstore.deleted_at d with
          | Some ts ->
            Printf.printf "  deleted %s\n" (Txq_temporal.Timestamp.to_string ts)
          | None -> ())
        incarnations;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "history" ~doc:"Show the version chain of a document.")
    Term.(ret (const run $ db_term $ trace_t $ url_t))

(* --- show ------------------------------------------------------------------- *)

let show_cmd =
  let url_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"URL" ~doc:"Document URL.")
  in
  let at_t =
    Arg.(value & opt (some string) None & info ["at"] ~docv:"DD/MM/YYYY"
           ~doc:"Timestamp of the snapshot to show (default: current).")
  in
  let run mk_db trace url at =
    with_tracing trace @@ fun () ->
    let db = mk_db () in
    let shown =
      match at with
      | Some s -> (
        match Txq_temporal.Timestamp.of_string_opt s with
        | None -> Error (Printf.sprintf "bad timestamp %S" s)
        | Some ts -> (
          match Txq_db.Db.find_at db url ts with
          | Some (d, v) ->
            Ok (Txq_db.Db.reconstruct db (Txq_db.Docstore.doc_id d) v)
          | None -> Error (Printf.sprintf "no version of %s at %s" url s)))
      | None -> (
        match Txq_db.Db.find_live db url with
        | Some d -> Ok (Txq_db.Docstore.current d)
        | None -> Error (Printf.sprintf "no live document at %s" url))
    in
    match shown with
    | Ok tree ->
      print_string (Txq_xml.Print.to_pretty (Txq_vxml.Vnode.to_xml tree));
      `Ok ()
    | Error msg -> `Error (false, msg)
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Print a document version (current or at a time).")
    Term.(ret (const run $ db_term $ trace_t $ url_t $ at_t))

(* --- stats ------------------------------------------------------------------- *)

let stats_cmd =
  let metrics_t =
    Arg.(value & flag & info ["metrics"]
           ~doc:"Also dump the process metrics registry (counters, gauges \
                 and span-latency histograms accumulated while building).")
  in
  let run mk_db trace metrics =
    with_tracing trace @@ fun () ->
    let db = mk_db () in
    let io = Txq_db.Db.io_stats db in
    Printf.printf "documents:        %d\n" (Txq_db.Db.document_count db);
    Printf.printf "commits:          %d\n" (Txq_db.Db.stats db).Txq_db.Db.commits;
    Printf.printf "live pages:       %d (%d KiB)\n" (Txq_db.Db.live_pages db)
      (Txq_db.Db.live_pages db * 4);
    Printf.printf "io during build:  %s\n" (Txq_store.Io_stats.to_string io);
    Printf.printf "pinned snapshots: %d%s\n"
      (Txq_db.Db.pinned_snapshots db)
      (match Txq_db.Db.oldest_pinned_watermark db with
       | Some w -> Printf.sprintf " (oldest watermark %d)" w
       | None -> "");
    (match Txq_db.Db.config db with
     | { Txq_db.Config.fti_mode = Txq_db.Config.Fti_versions | Txq_db.Config.Fti_both; _ } ->
       let s = Txq_fti.Fti.stats (Txq_db.Db.fti db) in
       Printf.printf "fti words:        %d\n" s.Txq_fti.Fti.fs_words;
       Printf.printf "fti postings:     %d (%d open)\n"
         s.Txq_fti.Fti.fs_postings s.Txq_fti.Fti.fs_open_postings;
       Printf.printf "fti segments:     %d (%d freezes)\n"
         s.Txq_fti.Fti.fs_segments s.Txq_fti.Fti.fs_freezes;
       Printf.printf "fti tail postings: %d\n" s.Txq_fti.Fti.fs_tail_postings;
       Printf.printf "fti frozen bytes: %d (%d postings)\n"
         s.Txq_fti.Fti.fs_frozen_bytes s.Txq_fti.Fti.fs_frozen_postings
     | _ -> ());
    if metrics || trace <> None then begin
      Txq_store.Io_stats.publish io;
      Format.printf "@.metrics:@.%a@?" Txq_obs.Metrics.pp_dump ()
    end;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Build the database and print storage/index statistics.")
    Term.(ret (const run $ db_term $ trace_t $ metrics_t))

(* --- verify ------------------------------------------------------------------- *)

let verify_cmd =
  let run mk_db trace =
    with_tracing trace @@ fun () ->
    let db = mk_db () in
    match Txq_db.Db.verify db with
    | Ok versions ->
      Printf.printf "ok: %d versions reconstruct cleanly\n" versions;
      `Ok ()
    | Error diagnostics ->
      List.iter (fun d -> Printf.eprintf "FAIL: %s\n" d) diagnostics;
      `Error (false, Printf.sprintf "%d integrity errors" (List.length diagnostics))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Reconstruct every stored version and check chain integrity.")
    Term.(ret (const run $ db_term $ trace_t))

(* --- vacuum ------------------------------------------------------------------- *)

let vacuum_cmd =
  let horizon_t =
    Arg.(value & opt (some string) None & info ["horizon"] ~docv:"DD/MM/YYYY"
           ~doc:"Retention horizon: history that stopped being current before \
                 this transaction time is squashed away; documents whose whole \
                 lifetime ended at or before it are dropped entirely.")
  in
  let keep_versions_t =
    Arg.(value & opt (some int) None & info ["keep-versions"] ~docv:"N"
           ~doc:"Keep at most the newest N versions of each document.")
  in
  let run mk_db trace horizon keep_versions =
    with_tracing trace @@ fun () ->
    match
      (Option.map Txq_temporal.Timestamp.of_string_opt horizon, keep_versions)
    with
    | Some None, _ ->
      `Error (false, Printf.sprintf "bad timestamp %S" (Option.get horizon))
    | None, None ->
      `Error (true, "vacuum needs --horizon and/or --keep-versions")
    | horizon, keep_versions ->
      let retention =
        {
          Txq_db.Config.keep_newer_than = Option.join horizon;
          keep_versions;
        }
      in
      let db = mk_db () in
      let pages_before = Txq_db.Db.live_pages db in
      let r = Txq_db.Db.vacuum ~retention db in
      Printf.printf "documents squashed: %d\n" r.Txq_db.Db.vr_docs_squashed;
      Printf.printf "documents dropped:  %d\n" r.Txq_db.Db.vr_docs_dropped;
      Printf.printf "versions dropped:   %d\n" r.Txq_db.Db.vr_versions_dropped;
      Printf.printf "pages freed:        %d (%d KiB reclaimed)\n"
        r.Txq_db.Db.vr_pages_freed (r.Txq_db.Db.vr_bytes_reclaimed / 1024);
      Printf.printf "index rows pruned:  %d postings, %d delta entries, %d \
                     cretime\n"
        r.Txq_db.Db.vr_postings_pruned r.Txq_db.Db.vr_dfti_pruned
        r.Txq_db.Db.vr_cretime_pruned;
      Printf.printf "live pages:         %d -> %d\n" pages_before
        (Txq_db.Db.live_pages db);
      (match Txq_db.Db.verify db with
       | Ok versions ->
         Printf.printf "verify:             ok, %d retained versions reconstruct\n"
           versions;
         `Ok ()
       | Error diagnostics ->
         List.iter (fun d -> Printf.eprintf "FAIL: %s\n" d) diagnostics;
         `Error
           (false, Printf.sprintf "%d integrity errors" (List.length diagnostics)))
  in
  Cmd.v
    (Cmd.info "vacuum"
       ~doc:"Build the database, apply a retention policy (squash old \
             versions into base snapshots, reclaim their space), and verify \
             the survivors.")
    Term.(ret (const run $ db_term $ trace_t $ horizon_t $ keep_versions_t))

(* --- recover ------------------------------------------------------------------- *)

let recover_cmd =
  let crash_after_t =
    Arg.(value & opt (some int) None & info ["crash-after"] ~docv:"N"
           ~doc:"After the build, keep committing and tear the N-th disk write \
                 (a deterministic torn-page crash), then recover from the \
                 surviving pages.")
  in
  let run fig1 docs versions seed snapshots clustered fti_mode segment_postings
      domains crash_after trace =
    with_tracing trace @@ fun () ->
    let config =
      Txq_db.Config.durable
        (config_of snapshots clustered fti_mode segment_postings domains false)
    in
    let db = build_db ~fig1 ~docs ~versions ~seed config in
    let disk = Txq_db.Db.disk db in
    (match crash_after with
     | None -> ()
     | Some n ->
       Txq_store.Disk.fail_after_writes disk n;
       let url =
         match Txq_db.Db.doc_ids db with
         | id :: _ -> Txq_db.Docstore.url (Txq_db.Db.doc db id)
         | [] -> fig1_url
       in
       (try
          for _ = 1 to 10_000 do
            match Txq_db.Db.find_live db url with
            | Some d ->
              ignore
                (Txq_db.Db.update_document db ~url
                   (Txq_vxml.Vnode.to_xml (Txq_db.Docstore.current d)))
            | None -> raise Exit
          done;
          Printf.eprintf "warning: the workload never reached write %d\n" n
        with
        | Txq_store.Disk.Crash ->
          Printf.printf "crash injected: disk write %d tore mid-page\n" n
        | Exit -> ());
       Txq_store.Disk.clear_fault disk);
    let rdb = Txq_db.Db.recover disk config in
    Printf.printf "recovered documents: %d\n" (Txq_db.Db.document_count rdb);
    Printf.printf "recovered commits:   %d\n"
      (Txq_db.Db.stats rdb).Txq_db.Db.commits;
    (match Txq_db.Db.config rdb with
     | { Txq_db.Config.fti_mode = Txq_db.Config.Fti_versions
                                | Txq_db.Config.Fti_both; _ } ->
       let fti = Txq_db.Db.fti rdb in
       Printf.printf "fti rebuilt:         %d postings, %d segments, %d tail\n"
         (Txq_fti.Fti.posting_count fti)
         (Txq_fti.Fti.segment_count fti)
         (Txq_fti.Fti.tail_posting_count fti)
     | _ -> ());
    (match Txq_db.Db.journal rdb with
     | Some j ->
       Printf.printf "journal:             %d records on %d pages\n"
         (Txq_store.Journal.record_count j) (Txq_store.Journal.page_count j)
     | None -> ());
    match Txq_db.Db.verify rdb with
    | Ok versions ->
      Printf.printf "verify:              ok, %d versions reconstruct\n" versions;
      `Ok ()
    | Error diagnostics ->
      List.iter (fun d -> Printf.eprintf "FAIL: %s\n" d) diagnostics;
      `Error (false, Printf.sprintf "%d integrity errors" (List.length diagnostics))
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Build a journaled database, optionally crash it mid-commit, and \
             rebuild it from the disk image alone.")
    Term.(ret (const run $ fig1_t $ docs_t $ versions_t $ seed_t $ snapshots_t
               $ clustered_t $ fti_mode_t $ segment_postings_t $ domains_t
               $ crash_after_t $ trace_t))

(* --- restore ------------------------------------------------------------------- *)

let restore_cmd =
  let as_of_t =
    Arg.(required & opt (some string) None & info ["as-of"] ~docv:"DD/MM/YYYY"
           ~doc:"Transaction-time restore point (inclusive: a commit stamped \
                 exactly $(docv) is part of the restored state).")
  in
  let into_t =
    Arg.(value & opt (some string) None & info ["into"] ~docv:"DIR"
           ~doc:"Save the restored store's disk image into a fresh directory \
                 $(docv) (refused if it exists), then reopen and verify it \
                 from the saved image alone.")
  in
  let run fig1 docs versions seed snapshots clustered fti_mode segment_postings
      domains trace as_of into =
    with_tracing trace @@ fun () ->
    match Txq_temporal.Timestamp.of_string_opt as_of with
    | None -> `Error (false, Printf.sprintf "bad timestamp %S" as_of)
    | Some ts ->
      let config =
        Txq_db.Config.durable
          (config_of snapshots clustered fti_mode segment_postings domains false)
      in
      let db = build_db ~fig1 ~docs ~versions ~seed config in
      let restored = Txq_db.Db.restore_as_of db ~as_of:ts in
      Printf.printf "source:   %d documents, %d commits\n"
        (Txq_db.Db.document_count db) (Txq_db.Db.stats db).Txq_db.Db.commits;
      Printf.printf "restored: %d documents, %d commits as of %s\n"
        (Txq_db.Db.document_count restored)
        (Txq_db.Db.stats restored).Txq_db.Db.commits
        (Txq_temporal.Timestamp.to_string ts);
      let verified label rdb =
        match Txq_db.Db.verify rdb with
        | Ok versions ->
          Printf.printf "verify %s: ok, %d versions reconstruct\n" label versions;
          `Ok ()
        | Error diagnostics ->
          List.iter (fun d -> Printf.eprintf "FAIL: %s\n" d) diagnostics;
          `Error
            (false, Printf.sprintf "%d integrity errors" (List.length diagnostics))
      in
      (match verified "(in-memory)" restored with
       | `Error _ as e -> e
       | `Ok () -> (
         match into with
         | None -> `Ok ()
         | Some dir -> (
           match Txq_store.Disk.save_to_dir (Txq_db.Db.disk restored) dir with
           | exception Invalid_argument msg -> `Error (false, msg)
           | () ->
             let disk = Txq_store.Disk.load_from_dir dir in
             let reopened = Txq_db.Db.recover disk (Txq_db.Db.config restored) in
             Printf.printf "saved:    %s (%d pages); reopened %d documents, \
                            %d commits\n"
               dir
               (Txq_store.Disk.page_count disk)
               (Txq_db.Db.document_count reopened)
               (Txq_db.Db.stats reopened).Txq_db.Db.commits;
             verified "(reopened)" reopened)))
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:"Build a journaled database, clone it as of a past transaction \
             time by replaying the shipped journal prefix, and verify the \
             clone (optionally saving its disk image to a directory).")
    Term.(ret (const run $ fig1_t $ docs_t $ versions_t $ seed_t $ snapshots_t
               $ clustered_t $ fti_mode_t $ segment_postings_t $ domains_t
               $ trace_t $ as_of_t $ into_t))

let main =
  let doc = "temporal XML database (Nørvåg 2002 reproduction)" in
  Cmd.group
    (Cmd.info "txmldb" ~version:"1.0.0" ~doc)
    [query_cmd; history_cmd; show_cmd; stats_cmd; verify_cmd; vacuum_cmd;
     recover_cmd; restore_cmd]

let () = exit (Cmd.eval main)
