(* An XML news warehouse, the paper's Section 3.1 setting.

   Articles are *crawled*: versions arrive at irregular instants, some
   intermediate revisions are missed entirely, and articles disappear when
   taken down.  Each article also embeds its own publication timestamp
   (document time, after XMLNews-Meta).  Document time is part of the
   content, so queries reach it through content like any other value.
   This example shows the three kinds of time side by side and runs
   change-oriented queries over the archive.

   Run with: dune exec examples/news_archive.exe *)

module Db = Txq_db.Db
module Timestamp = Txq_temporal.Timestamp
module Duration = Txq_temporal.Duration
module Workload = Txq_workload

let show = Txq_xml.Print.to_pretty

let () =
  let rng = Workload.Rng.create ~seed:7 in
  let vocab = Workload.Vocab.create ~size:500 (Workload.Rng.split rng) in
  let gen = Workload.News.create ~vocab (Workload.Rng.split rng) in
  let db = Db.create () in
  let base = Timestamp.of_date ~day:1 ~month:6 ~year:2001 in

  (* crawl three news feeds over a month; crawl instants are irregular and
     some revisions happen between crawls (and are lost, as the paper
     notes) *)
  let urls =
    List.mapi
      (fun i topic ->
        let url = Printf.sprintf "news.example.com/%s.xml" topic in
        let published = Timestamp.add base (Duration.hours (6 * i)) in
        let article = Workload.News.article gen ~topic ~published in
        ignore (Db.insert_document db ~url ~ts:published article);
        (url, ref article))
      ["politics"; "economy"; "science"]
  in
  for day = 1 to 30 do
    List.iteri
      (fun i (url, current) ->
        (* each feed is crawled roughly every 2-3 days, offset per feed *)
        if (day + i) mod (2 + i) = 0 then begin
          (* the site may have revised the article several times since the
             last crawl; only the latest state is observed *)
          let revisions = 1 + Workload.Rng.int rng 3 in
          for _ = 1 to revisions do
            current := Workload.News.revise gen !current
          done;
          let crawl_ts =
            Timestamp.add base (Duration.add (Duration.days day) (Duration.hours i))
          in
          ignore (Db.update_document db ~url ~ts:crawl_ts !current)
        end)
      urls
  done;
  (* the science article is taken down at the end of the month *)
  Db.delete_document db ~url:"news.example.com/science.xml"
    ~ts:(Timestamp.add base (Duration.days 31))
    ();

  Printf.printf "Archive: %d documents, %d commits\n\n"
    (Db.document_count db) (Db.stats db).Db.commits;

  (* 1. transaction-time snapshot: the archive as we had crawled it on
     June 10th *)
  print_endline "--- titles as crawled by 10/06/2001 (transaction time) ---";
  List.iter
    (fun (url, _) ->
      match Db.find_at db url (Timestamp.of_string "10/06/2001") with
      | Some (d, v) ->
        let tree = Db.reconstruct db (Txq_db.Docstore.doc_id d) v in
        let title =
          match
            Txq_xml.Path.select_from_children
              (Txq_xml.Path.parse_exn "/title")
              (Txq_vxml.Vnode.to_xml tree)
          with
          | t :: _ -> Txq_xml.Xml.text_content t
          | [] -> "(no title)"
        in
        Printf.printf "  %-34s v%d  %s\n" url v title
      | None -> Printf.printf "  %-34s (not yet crawled)\n" url)
    urls;
  print_endline "";

  (* 2. document time: the publication timestamp each article carries in
     its content, queried through that content like any other value *)
  print_endline "--- articles published before 02/06/2001 (document time) ---";
  let by_doc_time =
    Txq_query.Exec.run_string_exn db
      {|SELECT A/meta/topic, A/meta/published
        FROM doc("news.example.com/politics.xml")//article A
        WHERE A/meta/published CONTAINS "01/06/2001"|}
  in
  print_string (show by_doc_time);
  print_endline "";

  (* 3. change queries: how often was each feed revised, and when did the
     science article vanish? *)
  print_endline "--- revision counts (whole history) ---";
  List.iter
    (fun (url, _) ->
      match Db.find_all db url with
      | [d] ->
        Printf.printf "  %-34s %d versions%s\n" url
          (Txq_db.Docstore.version_count d)
          (match Txq_db.Docstore.deleted_at d with
           | Some ts -> Printf.sprintf ", deleted %s" (Timestamp.to_string ts)
           | None -> "")
      | _ -> ())
    urls;
  print_endline "";

  print_endline "--- every title the politics feed ever had ---";
  let titles =
    Txq_query.Exec.run_string_exn db
      {|SELECT DISTINCT A/title FROM doc("news.example.com/politics.xml")[EVERY]//article A|}
  in
  print_string (show titles)
