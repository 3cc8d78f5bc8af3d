(* E24: the tree diff on its own — the cost of identifying one revision.

   Under the storage model of Section 7.1 every commit stores a completed
   delta, so each served update diffs the new revision against the current
   version before anything is written.  The inputs are E23's evolved
   restaurant guides (20 and 40 restaurants, inserts and deletes at a third
   of the default rate, reorders at the default rate); each version is
   diffed against its predecessor's identified tree, and only the
   [Diff.diff] calls are measured: microseconds and minor-heap words per
   diff and per node of the old version, with the ops and encoded delta
   bytes the diffs produce.

   --check-diff gates on minor words per node: for fixed inputs the count
   repeats exactly from run to run, unlike the timings. *)

module Xml = Txq_xml.Xml
module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
module Diff = Txq_vxml.Diff
module Delta = Txq_vxml.Delta
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Restaurant = Txq_workload.Restaurant

(* Gate bound, minor words allocated per old-version node.  Indexing both
   trees into records and building the changed part of the new version
   allocates about 36 on these guides; hash tables keyed by node index and
   XID and a whole-tree working copy allocated about 214.  A per-node
   closure or table entry lands above 45. *)
let max_words_per_node = 45.0

(* The guide's versions as the commit path receives them, paired with the
   identified tree each is diffed against and that tree's largest XID. *)
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
    if k = 0 then Array.of_list (List.rev acc)
    else
      let doc' = Xml.normalize (Restaurant.evolve g doc) in
      let _, tree' = Diff.diff ~gen ~old_tree:tree ~new_tree:doc' in
      evolve (k - 1) doc' tree' ((tree, doc', Vnode.max_xid tree) :: acc)
  in
  evolve (versions - 1) doc0 (Vnode.of_xml gen doc0) []

(* Every diff of the guide, each drawing fresh XIDs past the old tree's. *)
let diff_all steps =
  Array.map
    (fun (old_tree, doc, max_xid) ->
      let gen = Xid.Gen.create () in
      Option.iter (Xid.Gen.mark_used gen) max_xid;
      fst (Diff.diff ~gen ~old_tree ~new_tree:doc))
    steps

let run ~smoke ~check =
  Harness.section "E24  Tree diff: Diff.diff cost per revision"
    "Diffs every version of two evolved restaurant guides against its\n\
     predecessor's identified tree, and reports microseconds and minor-heap\n\
     words per diff and per old-version node, with the ops and encoded\n\
     delta bytes produced.  Words repeat exactly for fixed inputs; time\n\
     does not.";
  let versions = 20 in
  let runs = if smoke then 3 else 9 in
  let failures = ref [] in
  let rows, json =
    List.split
      (List.map
         (fun restaurants ->
           let steps = guide ~restaurants ~versions in
           let n = float_of_int (Array.length steps) in
           let nodes =
             float_of_int
               (Array.fold_left (fun acc (t, _, _) -> acc + Vnode.size t) 0 steps)
             /. n
           in
           ignore (diff_all steps);
           let w0 = Gc.minor_words () in
           let deltas = diff_all steps in
           let words = Gc.minor_words () -. w0 in
           let us =
             Harness.time_us ~warmup:1 ~runs (fun () -> diff_all steps) /. n
           in
           let ops =
             Array.fold_left (fun acc d -> acc + Delta.op_count d) 0 deltas
           in
           let bytes =
             Array.fold_left
               (fun acc d -> acc + String.length (Delta.encode d))
               0 deltas
           in
           let per_node = words /. n /. nodes in
           if per_node > max_words_per_node then
             failures :=
               Printf.sprintf "%d restaurants: %.2f minor words/node (max %.2f)"
                 restaurants per_node max_words_per_node
               :: !failures;
           ( [
               string_of_int restaurants;
               string_of_int (Array.length steps);
               Printf.sprintf "%.0f" nodes;
               Printf.sprintf "%.1f" us;
               Printf.sprintf "%.3f" (us /. nodes);
               Printf.sprintf "%.0f" (words /. n);
               Printf.sprintf "%.1f" per_node;
               string_of_int ops;
               Harness.fmt_int bytes;
             ],
             Harness.Json.Obj
               [
                 ("restaurants", Harness.Json.Int restaurants);
                 ("diffs", Harness.Json.Int (Array.length steps));
                 ("nodes_per_version", Harness.Json.Float nodes);
                 ("us_per_diff", Harness.Json.Float us);
                 ("us_per_node", Harness.Json.Float (us /. nodes));
                 ("minor_words_per_diff", Harness.Json.Float (words /. n));
                 ("minor_words_per_node", Harness.Json.Float per_node);
                 ("ops", Harness.Json.Int ops);
                 ("delta_bytes", Harness.Json.Int bytes);
               ] ))
         [ 20; 40 ])
  in
  Harness.print_table ~title:"E24: Diff.diff per revision"
    ~columns:
      [ "restaurants"; "diffs"; "nodes"; "us/diff"; "us/node"; "words/diff";
        "words/node"; "ops"; "delta bytes" ]
    rows;
  Harness.record_json "provenance" (E23.provenance ());
  Harness.record_json "smoke" (Harness.Json.Bool smoke);
  Harness.record_json "runs" (Harness.Json.Int runs);
  Harness.record_json "guides" (Harness.Json.Arr json);
  if check then
    match List.rev !failures with
    | [] ->
      Printf.printf "  diff check ok: <= %.1f minor words/node\n"
        max_words_per_node
    | fs ->
      List.iter (fun f -> Printf.eprintf "E24 FAIL: %s\n" f) fs;
      exit 1
