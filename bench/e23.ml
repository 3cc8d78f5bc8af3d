(* E23: FTI maintenance on its own — the cost of indexing one version.

   Under alternative A1 (Section 7.2) every committed version is indexed
   against the previous one: postings of occurrences that left close,
   postings of occurrences that arrived open.  The database pays this once
   per commit, once per replayed record on a replica and once per retained
   version when a restart rebuilds the index, so its cost bounds commit
   latency, catch-up and restart alike.  The inputs are two evolved
   restaurant guides of the shape the end-to-end benchmark stores (20 and
   40 restaurants, inserts and deletes at a third of the default rate);
   their versions are identified by the diff beforehand, and only the
   [Fti.index_version] calls are measured: microseconds and minor-heap
   words per version and per occurrence walked.

   --check-fti gates on minor words per occurrence: for fixed inputs the
   count repeats exactly from run to run, unlike the timings. *)

module Xml = Txq_xml.Xml
module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
module Diff = Txq_vxml.Diff
module Fti = Txq_fti.Fti
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Restaurant = Txq_workload.Restaurant

(* Gate bound, minor words allocated per occurrence walked.  Indexing
   against the open postings allocates about 13 on these guides (the token
   string and its list cell, the probe key, a share of each element's
   path); building and diffing a sorted occurrence set per version
   allocated about 150.  A copy of the path per probe lands above 16. *)
let max_words_per_occurrence = 16.0

(* [versions] XID-identified versions of one guide, as the commit path
   identifies them. *)
let guide ~restaurants ~versions =
  let rng = Rng.create ~seed:23 in
  let vocab = Vocab.create (Rng.split rng) in
  let params =
    { Restaurant.default_params with
      Restaurant.restaurants; p_insert = 0.05; p_delete = 0.05 }
  in
  let g = Restaurant.create ~params ~vocab (Rng.split rng) in
  let gen = Xid.Gen.create () in
  let doc0 = Xml.normalize (Restaurant.initial g) in
  let rec evolve k doc tree acc =
    if k = 0 then List.rev acc
    else
      let doc' = Xml.normalize (Restaurant.evolve g doc) in
      let _, tree' = Diff.diff ~gen ~old_tree:tree ~new_tree:doc' in
      evolve (k - 1) doc' tree' (tree' :: acc)
  in
  let tree0 = Vnode.of_xml gen doc0 in
  Array.of_list (evolve (versions - 1) doc0 tree0 [ tree0 ])

let index_all trees =
  let fti = Fti.create () in
  Array.iteri
    (fun version tree -> Fti.index_version fti ~doc:0 ~version tree)
    trees;
  fti

let occurrences trees =
  Array.fold_left
    (fun n tree ->
      let k = ref 0 in
      Vnode.iter_occurrences (fun _ _ _ -> incr k) tree;
      n + !k)
    0 trees

let provenance () =
  let commit =
    try
      let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "unknown" in
      ignore (Unix.close_process_in ic);
      line
    with Unix.Unix_error _ -> "unknown"
  in
  Harness.Json.Obj
    [
      ("commit", Harness.Json.Str commit);
      ("nproc", Harness.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Harness.Json.Str Sys.ocaml_version);
    ]

let run ~smoke ~check =
  Harness.section "E23  FTI maintenance: index_version cost per version"
    "Indexes every version of two evolved restaurant guides into a fresh\n\
     FTI, in commit order, and reports microseconds and minor-heap words\n\
     per version and per occurrence walked (duplicates included).  Words\n\
     repeat exactly for fixed inputs; time does not.";
  let versions = if smoke then 40 else 200 in
  let runs = if smoke then 3 else 7 in
  let failures = ref [] in
  let rows, json =
    List.split
      (List.map
         (fun restaurants ->
           let trees = guide ~restaurants ~versions in
           let n = float_of_int versions in
           let occs = float_of_int (occurrences trees) in
           let nodes =
             float_of_int (Array.fold_left (fun n t -> n + Vnode.size t) 0 trees)
             /. n
           in
           ignore (index_all trees);
           let w0 = Gc.minor_words () in
           let fti = index_all trees in
           let words = Gc.minor_words () -. w0 in
           let us =
             Harness.time_us ~warmup:1 ~runs (fun () -> index_all trees) /. n
           in
           let per_occ = words /. occs in
           if per_occ > max_words_per_occurrence then
             failures :=
               Printf.sprintf
                 "%d restaurants: %.2f minor words/occurrence (max %.2f)"
                 restaurants per_occ max_words_per_occurrence
               :: !failures;
           ( [
               string_of_int restaurants;
               string_of_int versions;
               Printf.sprintf "%.0f" nodes;
               Printf.sprintf "%.0f" (occs /. n);
               Harness.fmt_int (Fti.posting_count fti);
               Printf.sprintf "%.1f" us;
               Printf.sprintf "%.0f" (words /. n);
               Printf.sprintf "%.2f" per_occ;
             ],
             Harness.Json.Obj
               [
                 ("restaurants", Harness.Json.Int restaurants);
                 ("versions", Harness.Json.Int versions);
                 ("nodes_per_version", Harness.Json.Float nodes);
                 ("occurrences_per_version", Harness.Json.Float (occs /. n));
                 ("postings", Harness.Json.Int (Fti.posting_count fti));
                 ("us_per_version", Harness.Json.Float us);
                 ("minor_words_per_version", Harness.Json.Float (words /. n));
                 ("minor_words_per_occurrence", Harness.Json.Float per_occ);
               ] ))
         [ 20; 40 ])
  in
  Harness.print_table ~title:"E23: Fti.index_version per version"
    ~columns:
      [ "restaurants"; "versions"; "nodes"; "occurrences"; "postings";
        "us/version"; "words/version"; "words/occurrence" ]
    rows;
  Harness.record_json "provenance" (provenance ());
  Harness.record_json "smoke" (Harness.Json.Bool smoke);
  Harness.record_json "runs" (Harness.Json.Int runs);
  Harness.record_json "guides" (Harness.Json.Arr json);
  if check then
    match List.rev !failures with
    | [] ->
      Printf.printf "  fti check ok: <= %.1f minor words/occurrence\n"
        max_words_per_occurrence
    | fs ->
      List.iter (fun f -> Printf.eprintf "E23 FAIL: %s\n" f) fs;
      exit 1
