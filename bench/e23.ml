(* E23: FTI maintenance on its own — the cost of indexing one version.

   Under alternative A1 (Section 7.2) every committed version is indexed
   against the previous one: postings of occurrences that left close,
   postings of occurrences that arrived open.  The database pays this once
   per commit, once per replayed record on a replica and once per retained
   version when a restart rebuilds the index, so its cost bounds commit
   latency, catch-up and restart alike.  The inputs are two evolved
   restaurant guides of the shape the end-to-end benchmark stores (20 and
   40 restaurants, inserts and deletes at a third of the default rate);
   their versions and deltas are identified by the diff beforehand, and
   only the [Fti.index_version] calls are measured, two ways: walking each
   whole version (what an insert and a restart's base version take), and
   from the delta (the commit path: only the elements the delta marks).
   Reported: microseconds and minor-heap words per version, and words per
   occurrence of the indexed versions.

   --check-fti gates both paths on minor words per occurrence (for fixed
   inputs the count repeats exactly from run to run, unlike the timings)
   and requires both to open the same postings. *)

module Xml = Txq_xml.Xml
module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
module Diff = Txq_vxml.Diff
module Fti = Txq_fti.Fti
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Restaurant = Txq_workload.Restaurant

(* Gate bounds, minor words allocated per occurrence of the indexed
   versions.  The whole walk allocates about 13 on these guides (the token
   string and its list cell, the probe key, a share of each element's
   path); building and diffing a sorted occurrence set per version
   allocated about 150, and a copy of the path per probe lands above 16.
   Indexing from the delta allocates 5.8-6.0 (the marked elements' walks
   in both trees, the postings that open, the delta's marks); the bound
   leaves a sixth on top of that, and walking every element of the new
   version again lands above 13. *)
let max_words_per_occurrence = 16.0
let max_delta_words_per_occurrence = 7.0

(* [versions] XID-identified versions of one guide, as the commit path
   identifies them, each with its change from the previous version (the
   previous tree and the diff's delta). *)
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
      let delta, tree' = Diff.diff ~gen ~old_tree:tree ~new_tree:doc' in
      evolve (k - 1) doc' tree' ((tree', Some (tree, delta)) :: acc)
  in
  let tree0 = Vnode.of_xml gen doc0 in
  Array.of_list (evolve (versions - 1) doc0 tree0 [ (tree0, None) ])

let index_all ~from_delta versions =
  let fti = Fti.create () in
  Array.iteri
    (fun version (tree, change) ->
      let change = if from_delta then change else None in
      Fti.index_version fti ?change ~doc:0 ~version tree)
    versions;
  fti

let occurrences versions =
  Array.fold_left
    (fun n (tree, _) ->
      let k = ref 0 in
      Vnode.iter_occurrences (fun _ _ _ -> incr k) tree;
      n + !k)
    0 versions

let same_postings a b =
  List.sort String.compare (Fti.vocabulary a)
  = List.sort String.compare (Fti.vocabulary b)
  && List.for_all (fun w -> Fti.lookup_h a w = Fti.lookup_h b w) (Fti.vocabulary a)

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
     FTI, in commit order, walking each whole version and from each\n\
     version's delta, and reports microseconds and minor-heap words per\n\
     version and per occurrence of the indexed versions (duplicates\n\
     included).  Words repeat exactly for fixed inputs; time does not.";
  let versions = if smoke then 40 else 200 in
  let runs = if smoke then 3 else 7 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun f -> failures := f :: !failures) fmt in
  let rows, json =
    List.split
      (List.map
         (fun restaurants ->
           let vs = guide ~restaurants ~versions in
           let n = float_of_int versions in
           let occs = float_of_int (occurrences vs) in
           let nodes =
             float_of_int
               (Array.fold_left (fun n (t, _) -> n + Vnode.size t) 0 vs)
             /. n
           in
           let measure from_delta =
             ignore (index_all ~from_delta vs);
             let w0 = Gc.minor_words () in
             let fti = index_all ~from_delta vs in
             let words = Gc.minor_words () -. w0 in
             let us =
               Harness.time_us ~warmup:1 ~runs (fun () -> index_all ~from_delta vs)
               /. n
             in
             (fti, us, words)
           in
           let fti, us, words = measure false in
           let dfti, dus, dwords = measure true in
           let per_occ = words /. occs and dper_occ = dwords /. occs in
           let same = same_postings fti dfti in
           if per_occ > max_words_per_occurrence then
             fail "%d restaurants: whole walk %.2f minor words/occurrence (max %.2f)"
               restaurants per_occ max_words_per_occurrence;
           if dper_occ > max_delta_words_per_occurrence then
             fail "%d restaurants: from the delta %.2f minor words/occurrence (max %.2f)"
               restaurants dper_occ max_delta_words_per_occurrence;
           if not same then
             fail "%d restaurants: the two paths open different postings" restaurants;
           let row path us words per_occ =
             [
               string_of_int restaurants;
               string_of_int versions;
               Printf.sprintf "%.0f" nodes;
               Printf.sprintf "%.0f" (occs /. n);
               Harness.fmt_int (Fti.posting_count fti);
               path;
               Printf.sprintf "%.1f" us;
               Printf.sprintf "%.0f" (words /. n);
               Printf.sprintf "%.2f" per_occ;
             ]
           in
           ( [ row "whole walk" us words per_occ;
               row "from the delta" dus dwords dper_occ ],
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
                 ("delta_us_per_version", Harness.Json.Float dus);
                 ("delta_minor_words_per_version", Harness.Json.Float (dwords /. n));
                 ("delta_minor_words_per_occurrence", Harness.Json.Float dper_occ);
                 ("delta_time_ratio", Harness.Json.Float (dus /. us));
                 ("same_postings", Harness.Json.Bool same);
               ] ))
         [ 20; 40 ])
  in
  Harness.print_table ~title:"E23: Fti.index_version per version"
    ~columns:
      [ "restaurants"; "versions"; "nodes"; "occurrences"; "postings"; "path";
        "us/version"; "words/version"; "words/occurrence" ]
    (List.concat rows);
  Harness.record_json "provenance" (provenance ());
  Harness.record_json "smoke" (Harness.Json.Bool smoke);
  Harness.record_json "runs" (Harness.Json.Int runs);
  Harness.record_json "guides" (Harness.Json.Arr json);
  if check then
    match List.rev !failures with
    | [] ->
      Printf.printf
        "  fti check ok: <= %.1f (whole walk) and <= %.1f (from the delta) \
         minor words/occurrence, same postings\n"
        max_words_per_occurrence max_delta_words_per_occurrence
    | fs ->
      List.iter (fun f -> Printf.eprintf "E23 FAIL: %s\n" f) fs;
      exit 1
