(* E22: the XML codec on its own — parse and print cost per input byte.

   Every stored delta and stored tree is an XML document (Section 7.1), and
   every served update arrives as document text, so history scans, commits,
   recovery and replica catch-up all pay the scanner and the printer per
   byte.  Modelled on a parse/print loop over one fixed document: three
   inputs of the restaurant corpus (a served update text, a stored delta,
   a stored tree), each parsed the way its decoder parses it and printed
   back, timed over many iterations and counted in minor-heap words.  The
   stored forms are also timed through their whole decoder, so the scanner's
   share of a decode shows.

   --check-codec gates on minor words per input byte: for fixed inputs the
   count repeats exactly from run to run, unlike the timings. *)

module Xml = Txq_xml.Xml
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
module Diff = Txq_vxml.Diff
module Delta = Txq_vxml.Delta
module Codec = Txq_vxml.Codec
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Restaurant = Txq_workload.Restaurant

(* Gate bounds, minor words allocated per input byte.  The scanner
   allocates 0.71-0.90 and the printer at most 0.45 on these inputs; an
   allocation per scanned character (a lookahead substring, a closure per
   run) lands above them. *)
let max_parse_words_per_byte = 1.2
let max_print_words_per_byte = 0.55

(* Three inputs of a cold-history-sized guide (40 restaurants): the text of
   the fourth version as a client sends it, the stored delta of the
   fourth commit, and the stored tree of the fourth version. *)
let inputs () =
  let rng = Rng.create ~seed:22 in
  let vocab = Vocab.create (Rng.split rng) in
  let params = { Restaurant.default_params with Restaurant.restaurants = 40 } in
  let g = Restaurant.create ~params ~vocab (Rng.split rng) in
  let gen = Xid.Gen.create () in
  let doc0 = Xml.normalize (Restaurant.initial g) in
  let rec evolve k (doc, tree, delta) =
    if k = 0 then (doc, tree, delta)
    else
      let doc' = Xml.normalize (Restaurant.evolve g doc) in
      let delta', tree' = Diff.diff ~gen ~old_tree:tree ~new_tree:doc' in
      evolve (k - 1) (doc', tree', Some delta')
  in
  let doc, tree, delta = evolve 3 (doc0, Vnode.of_xml gen doc0, None) in
  let decoder decode s = ignore (Result.get_ok (decode s)) in
  [
    ("document text", Print.to_string doc, false, None);
    ("stored delta", Delta.encode (Option.get delta), true, Some (decoder Delta.decode));
    ("stored tree", Codec.encode tree, true, Some (decoder Codec.decode));
  ]

(* Minor words one call allocates, after a warm-up call. *)
let minor_words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (f ());
  Gc.minor_words () -. w0

(* Median nanoseconds per call over batches of [iters] calls. *)
let ns_per_call ~iters f =
  let batch () =
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  Harness.time_us ~warmup:1 ~runs:5 batch *. 1000.0 /. float_of_int iters

let run ~smoke ~check =
  Harness.section "E22  XML codec: parse and print cost per byte"
    "Parses three stored or served XML inputs the way their decoders do\n\
     and prints the parsed tree back; reports ns and minor-heap words per\n\
     input byte, and the whole decode (parse + tree conversion) of the\n\
     stored forms.  Words repeat exactly for fixed inputs; time does not.";
  let iters = if smoke then 20 else 400 in
  let failures = ref [] in
  let rows, json =
    List.split
      (List.map
         (fun (name, text, keep_whitespace, decode) ->
           let bytes = float_of_int (String.length text) in
           let parse () = Parse.parse_exn ~keep_whitespace text in
           let tree = parse () in
           let print () = Print.to_string tree in
           if not (String.equal (print ()) text) then
             failures := Printf.sprintf "%s: print (parse s) <> s" name :: !failures;
           let parse_ns = ns_per_call ~iters parse /. bytes in
           let print_ns = ns_per_call ~iters print /. bytes in
           let decode_ns =
             Option.map (fun d -> ns_per_call ~iters (fun () -> d text) /. bytes) decode
           in
           let parse_w = minor_words parse /. bytes in
           let print_w = minor_words print /. bytes in
           if parse_w > max_parse_words_per_byte then
             failures :=
               Printf.sprintf "%s: parse allocates %.2f words/byte (max %.2f)"
                 name parse_w max_parse_words_per_byte
               :: !failures;
           if print_w > max_print_words_per_byte then
             failures :=
               Printf.sprintf "%s: print allocates %.2f words/byte (max %.2f)"
                 name print_w max_print_words_per_byte
               :: !failures;
           ( [
               name;
               Harness.fmt_int (String.length text);
               Printf.sprintf "%.1f" parse_ns;
               Printf.sprintf "%.3f" parse_w;
               (match decode_ns with
                | Some ns -> Printf.sprintf "%.1f" ns
                | None -> "-");
               Printf.sprintf "%.1f" print_ns;
               Printf.sprintf "%.3f" print_w;
             ],
             Harness.Json.Obj
               [
                 ("input", Harness.Json.Str name);
                 ("bytes", Harness.Json.Int (String.length text));
                 ("parse_ns_per_byte", Harness.Json.Float parse_ns);
                 ("parse_minor_words_per_byte", Harness.Json.Float parse_w);
                 ( "decode_ns_per_byte",
                   match decode_ns with
                   | Some ns -> Harness.Json.Float ns
                   | None -> Harness.Json.Null );
                 ("print_ns_per_byte", Harness.Json.Float print_ns);
                 ("print_minor_words_per_byte", Harness.Json.Float print_w);
               ] ))
         (inputs ()))
  in
  Harness.print_table ~title:"E22: XML parse and print per input byte"
    ~columns:
      [ "input"; "bytes"; "parse ns/B"; "parse words/B"; "decode ns/B";
        "print ns/B"; "print words/B" ]
    rows;
  Harness.record_json "smoke" (Harness.Json.Bool smoke);
  Harness.record_json "iterations" (Harness.Json.Int iters);
  Harness.record_json "inputs" (Harness.Json.Arr json);
  if check then
    match List.rev !failures with
    | [] ->
      Printf.printf
        "  codec check ok: parse <= %.2f, print <= %.2f minor words/byte\n"
        max_parse_words_per_byte max_print_words_per_byte
    | fs ->
      List.iter (fun f -> Printf.eprintf "E22 FAIL: %s\n" f) fs;
      exit 1
