(* E25: history reads over delta residents — one [EVERY] statement, cold and
   warm.

   An element-history statement walks the completed-delta chain of its
   document from the current version down (Section 7.3.3), so without help
   it reads and decodes every delta of the chain, every time.  The version
   cache keeps decoded deltas next to materialized versions under one
   budget, so a repeat of the statement over the same chain decodes
   nothing.  The input is E23's 40-restaurant guide (seed 23) stored as 40
   versions in a database; the statement selects the price history of a
   restaurant present in every version.  It is run cold (buffer pool and
   version cache emptied before each run) and warm (repeated), under the
   default budget and with the cache disabled: microseconds, deltas
   decoded and page reads per statement, and the bytes left resident.

   The element-history sweep follows a map of the restaurant's own
   subtree, not of the whole guide; the nodes it maps per statement (the
   [mapped_nodes] trace counter) are reported too.

   --check-delta-cache gates on the decode counts, which are exact: a warm
   repeat decodes no delta, and a cold run or any run without the cache
   decodes the whole chain.  It also fails if a warm statement maps more
   than [max_mapped_nodes] nodes (the guide has 657). *)

module Xml = Txq_xml.Xml
module Db = Txq_db.Db
module Config = Txq_db.Config
module Exec = Txq_query.Exec
module Io_stats = Txq_store.Io_stats
module Timestamp = Txq_temporal.Timestamp
module Duration = Txq_temporal.Duration
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Restaurant = Txq_workload.Restaurant

let versions = 40
let max_mapped_nodes = 64
let url = "guide.example.org/e25.xml"

(* E23's guide as the commit path receives it: plain XML revisions. *)
let revisions () =
  let rng = Rng.create ~seed:23 in
  let vocab = Vocab.create (Rng.split rng) in
  let params =
    { Restaurant.default_params with
      Restaurant.restaurants = 40; p_insert = 0.05; p_delete = 0.05 }
  in
  let g = Restaurant.create ~params ~vocab (Rng.split rng) in
  let rec evolve k doc acc =
    if k = 0 then List.rev acc
    else
      let doc' = Xml.normalize (Restaurant.evolve g doc) in
      evolve (k - 1) doc' (doc' :: acc)
  in
  let doc0 = Xml.normalize (Restaurant.initial g) in
  evolve (versions - 1) doc0 [ doc0 ]

let names doc =
  List.filter_map
    (fun r -> Option.map Xml.text_content (Xml.find_child r "name"))
    (Xml.find_children doc "restaurant")

(* A restaurant named in every revision, so its history spans the chain. *)
let lifelong_name revs =
  match revs with
  | [] -> assert false
  | first :: rest ->
    List.find
      (fun n -> List.for_all (fun doc -> List.mem n (names doc)) rest)
      (names first)

let build ~budget revs =
  let config = { Config.default with Config.version_cache_bytes = budget } in
  let db = Db.create ~config () in
  let base = Timestamp.of_date ~day:1 ~month:1 ~year:2001 in
  List.iteri
    (fun i doc ->
      let ts = Timestamp.add base (Duration.days i) in
      if i = 0 then ignore (Db.insert_document db ~url ~ts doc)
      else ignore (Db.update_document db ~url ~ts doc))
    revs;
  db

(* One statement: wall time, deltas decoded and page reads.  Every delta a
   read consumes is either a delta-cache hit or a decode, so decodes are
   the deltas consumed less the hits — exact with or without the cache. *)
let measure db stmt =
  Db.reset_io db;
  let io = Db.io_stats db in
  let _, us = Harness.time_once (fun () -> Exec.run_string_exn db stmt) in
  let decoded = (Db.stats db).Db.deltas_read - io.Io_stats.delta_cache_hits in
  (us, decoded, io.Io_stats.page_reads)

(* Nodes the statement's element-history sweeps map, from one traced
   (untimed) run. *)
let mapped_nodes db stmt ~cold =
  if cold then Db.flush_cache db;
  let _, roots = Txq_obs.Trace.collect (fun () -> Exec.run_string_exn db stmt) in
  Option.value ~default:0
    (List.assoc_opt "mapped_nodes" (Txq_obs.Span.sum_int_attrs roots))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* [runs] statements, the caches emptied before each when [cold]; the
   counts must repeat exactly, so any run that differs is reported. *)
let series db stmt ~runs ~cold =
  let samples =
    List.init runs (fun _ ->
        if cold then Db.flush_cache db;
        measure db stmt)
  in
  let us = median (List.map (fun (us, _, _) -> us) samples) in
  let _, decoded, reads = List.hd samples in
  let exact =
    List.for_all (fun (_, d, r) -> d = decoded && r = reads) samples
  in
  (us, decoded, reads, exact, (Db.io_stats db).Io_stats.vcache_bytes)

let run ~smoke ~check =
  Harness.section "E25  History reads over delta residents"
    "Runs one [EVERY] element-history statement over a 40-version guide,\n\
     cold (caches emptied first) and warm (repeated), with the default\n\
     version-cache budget and with the cache disabled, and reports\n\
     microseconds, deltas decoded, page reads and nodes mapped per\n\
     statement, and the bytes left resident.  Counts repeat exactly; time does not.";
  let runs = if smoke then 3 else 15 in
  let revs = revisions () in
  let chain = versions - 1 in
  let stmt =
    Printf.sprintf
      "SELECT TIME(R), R/price FROM doc(%S)[EVERY]//restaurant R WHERE \
       R/name = %S"
      url (lifelong_name revs)
  in
  let cases =
    [
      ("8 MiB", Config.default.Config.version_cache_bytes, true, chain);
      ("8 MiB", Config.default.Config.version_cache_bytes, false, 0);
      ("0", 0, true, chain);
      ("0", 0, false, chain);
    ]
  in
  let failures = ref [] in
  let rows, json =
    List.split
      (List.map
         (fun (label, budget, cold, expected) ->
           let db = build ~budget revs in
           (* warm: one unmeasured statement first *)
           if not cold then ignore (Exec.run_string_exn db stmt);
           let mapped = mapped_nodes db stmt ~cold in
           let us, decoded, reads, exact, resident =
             series db stmt ~runs ~cold
           in
           let mode = if cold then "cold" else "warm" in
           if decoded <> expected || not exact then
             failures :=
               Printf.sprintf
                 "budget %s, %s: %d deltas decoded (expected %d%s)" label mode
                 decoded expected
                 (if exact then "" else ", and the count varied between runs")
               :: !failures;
           if (not cold) && mapped > max_mapped_nodes then
             failures :=
               Printf.sprintf
                 "budget %s, warm: the sweep mapped %d nodes (at most %d)" label
                 mapped max_mapped_nodes
               :: !failures;
           ( [ label; mode; Printf.sprintf "%.1f" us; string_of_int decoded;
               string_of_int reads; string_of_int mapped; Harness.fmt_int resident ],
             Harness.Json.Obj
               [
                 ("budget_bytes", Harness.Json.Int budget);
                 ("mode", Harness.Json.Str mode);
                 ("us_per_statement", Harness.Json.Float us);
                 ("deltas_decoded", Harness.Json.Int decoded);
                 ("page_reads", Harness.Json.Int reads);
                 ("mapped_nodes", Harness.Json.Int mapped);
                 ("resident_bytes", Harness.Json.Int resident);
               ] ))
         cases)
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "E25: one [EVERY] statement over a %d-delta chain" chain)
    ~columns:
      [ "budget"; "run"; "us/stmt"; "deltas decoded"; "page reads";
        "nodes mapped"; "resident bytes" ]
    rows;
  Harness.record_json "provenance" (E23.provenance ());
  Harness.record_json "smoke" (Harness.Json.Bool smoke);
  Harness.record_json "runs" (Harness.Json.Int runs);
  Harness.record_json "chain_deltas" (Harness.Json.Int chain);
  Harness.record_json "cases" (Harness.Json.Arr json);
  if check then
    match List.rev !failures with
    | [] ->
      Printf.printf
        "  delta cache check ok: warm repeat decodes 0, cold and budget 0 \
         decode %d, a warm sweep maps at most %d nodes\n"
        chain max_mapped_nodes
    | fs ->
      List.iter (fun f -> Printf.eprintf "E25 FAIL: %s\n" f) fs;
      exit 1
