(* Workload definitions: the seeded corpus and the fixed operation stream.

   Everything here is a pure function of the workload and the seed, so two
   runs with the same seed send byte-identical requests. *)

module Xml = Txq_xml.Xml
module Print = Txq_xml.Print
module Rng = Txq_workload.Rng
module Vocab = Txq_workload.Vocab
module Restaurant = Txq_workload.Restaurant
module Ts = Txq_temporal.Timestamp
module Dur = Txq_temporal.Duration

type shape = Hot_read | Cold_history | Commit_recover

type spec = {
  name : string;
  shape : shape;
  docs : int;
  setup_versions : int;  (** versions per document committed during set-up *)
  restaurants : int;  (** restaurants per guide document *)
  rounds : int;  (** rounds per 30 s of [--seconds] *)
  reads : int;  (** read workloads: timed reads per round *)
  writes : int;
      (** served full-document updates per round; fixed, because restart
          time grows with the square of the journal length *)
  reads_per_write : int;  (** commit-recover: reads after each update *)
  warmup : int;  (** untimed reads at the start of each round *)
  blocks : int;  (** stretches of the timed stream summarised on their own *)
}

let specs =
  [
    {
      name = "hot-read";
      shape = Hot_read;
      docs = 16;
      setup_versions = 6;
      restaurants = 20;
      rounds = 10;
      reads = 3000;
      writes = 200;
      reads_per_write = 0;
      warmup = 300;
      blocks = 6;
    };
    {
      name = "cold-history";
      shape = Cold_history;
      docs = 10;
      setup_versions = 20;
      restaurants = 40;
      rounds = 5;
      reads = 250;
      writes = 200;
      reads_per_write = 0;
      warmup = 40;
      blocks = 6;
    };
    {
      name = "commit-recover";
      shape = Commit_recover;
      docs = 16;
      setup_versions = 6;
      restaurants = 20;
      rounds = 10;
      reads = 0;
      writes = 200;
      reads_per_write = 12;
      warmup = 0;
      blocks = 6;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* --- the corpus ---------------------------------------------------------- *)

type t = {
  spec : spec;
  urls : string array;
  xmls : Xml.t array array;  (** [xmls.(doc).(version)], set-up and written *)
  texts : string array array;  (** the same documents as XML text *)
}

let versions_total spec = spec.setup_versions + ((spec.writes + spec.docs - 1) / spec.docs)

let generate spec ~seed =
  let rng = Rng.create ~seed in
  let vocab = Vocab.create (Rng.split rng) in
  (* restaurants are inserted and deleted at a third of the default rate:
     document sizes random-walk, and a slower walk keeps the store size
     (and so restart time) from depending on the seed *)
  let params =
    {
      Restaurant.default_params with
      Restaurant.restaurants = spec.restaurants;
      p_insert = 0.05;
      p_delete = 0.05;
    }
  in
  let n = versions_total spec in
  let xmls =
    Array.init spec.docs (fun _ ->
        let g = Restaurant.create ~params ~vocab (Rng.split rng) in
        let a = Array.make n (Restaurant.initial g) in
        for v = 1 to n - 1 do
          a.(v) <- Restaurant.evolve g a.(v - 1)
        done;
        a)
  in
  {
    spec;
    urls = Array.init spec.docs (Printf.sprintf "bench.example.org/guide-%d.xml");
    xmls;
    texts = Array.map (Array.map Print.to_string) xmls;
  }

(* Set-up commits are one day apart, documents interleaved, from 01/01/2001. *)
let base_ts = Ts.of_date ~day:1 ~month:1 ~year:2001

let ts_of spec ~doc ~version = Ts.add base_ts (Dur.days ((version * spec.docs) + doc))

(* The set-up version of [doc] valid at [ts]. *)
let version_at spec ~doc ts =
  let rec go v =
    if v + 1 < spec.setup_versions && Ts.(ts_of spec ~doc ~version:(v + 1) <= ts) then
      go (v + 1)
    else v
  in
  go 0

let names xml =
  List.filter_map
    (fun r ->
      List.find_opt (fun c -> Xml.tag c = Some "name") (Xml.child_elements r)
      |> Option.map Xml.text_content)
    (Xml.child_elements xml)

(* The [i]-th served update: round-robin over the documents. *)
let write_target c i = (i mod c.spec.docs, c.spec.setup_versions + (i / c.spec.docs))

(* --- the operation stream ------------------------------------------------ *)

type read_class = Current | Past | Every

type op =
  | Read of { stmt : string; word : string; doc : int; version : int; cls : read_class }
      (** [version] is the version the statement's word was taken from *)
  | Write of { doc : int; version : int }

let class_name = function Current -> "current" | Past -> "past" | Every -> "every"

let date ts =
  let d, m, y = Ts.to_date ts in
  Printf.sprintf "%d/%d/%d" d m y

let read c rng ~cls ~doc ~version ?at () =
  let word = Rng.pick rng (Array.of_list (names c.xmls.(doc).(version))) in
  let select, qualifier =
    match cls with
    | Current -> ("R/name, R/price", "")
    | Past -> ("R/name, R/price", "[" ^ date (Option.get at) ^ "]")
    | Every -> ("TIME(R), R/price", "[EVERY]")
  in
  let stmt =
    Printf.sprintf "SELECT %s FROM doc(\"%s\")%s//restaurant R WHERE R/name = \"%s\"" select
      c.urls.(doc) qualifier word
  in
  Read { stmt; word; doc; version; cls }

(* Four fixed past instants spread over the set-up history. *)
let hot_instants spec =
  Array.init 4 (fun k -> ts_of spec ~doc:0 ~version:((k + 1) * spec.setup_versions / 5))

(* Read [i] of a round: hot reads alternate current-version and
   past-instant scans; cold reads are three [EVERY] scans to one
   past-instant scan.  The class is fixed by position so that every round
   has the same mix, and only the document, instant and word are drawn. *)
let hot_read c rng i =
  let spec = c.spec in
  let doc = Rng.int rng spec.docs in
  if i mod 2 = 0 then read c rng ~cls:Current ~doc ~version:(spec.setup_versions - 1) ()
  else
    let at = Rng.pick rng (hot_instants spec) in
    read c rng ~cls:Past ~doc ~version:(version_at spec ~doc at) ~at ()

let cold_read c rng i =
  let spec = c.spec in
  let doc = Rng.int rng spec.docs in
  if i mod 4 <> 3 then read c rng ~cls:Every ~doc ~version:(Rng.int rng spec.setup_versions) ()
  else
    let at = Ts.add base_ts (Dur.days (Rng.int rng (spec.docs * spec.setup_versions))) in
    read c rng ~cls:Past ~doc ~version:(version_at spec ~doc at) ~at ()

let rounds spec ~seconds = max 3 (spec.rounds * seconds / 30)

(* The timed stream: [rounds] copies of one round, each sent to a fresh
   store at the end of set-up, so that rounds differ only in when they
   ran.  A round interleaves its [writes] updates evenly with its reads;
   warm-up reads come from their own generator, so the timed stream does
   not depend on the warm-up length. *)
let stream c ~seed ~seconds =
  let spec = c.spec in
  let rng = Rng.create ~seed:((seed * 7919) + 17) in
  let write i =
    let doc, version = write_target c i in
    Write { doc; version }
  in
  let rounds = rounds spec ~seconds in
  match spec.shape with
  | Hot_read | Cold_history ->
    let gen = if spec.shape = Hot_read then hot_read else cold_read in
    let reads = Array.init spec.reads (gen c rng) in
    let round =
      List.init spec.writes (fun i ->
          let lo = i * spec.reads / spec.writes and hi = (i + 1) * spec.reads / spec.writes in
          Array.to_list (Array.sub reads lo (hi - lo)) @ [write i])
      |> List.concat |> Array.of_list
    in
    let warm_rng = Rng.split rng in
    (Array.init spec.warmup (gen c warm_rng), Array.make rounds round)
  | Commit_recover ->
    let round =
      List.init spec.writes (fun i ->
          let doc, version = write_target c i in
          write i
          :: List.init spec.reads_per_write (fun _ -> read c rng ~cls:Current ~doc ~version ()))
      |> List.concat |> Array.of_list
    in
    ([||], Array.make rounds round)

let op_key = function
  | Read { stmt; _ } -> stmt
  | Write { doc; version } -> Printf.sprintf "update %d %d" doc version
