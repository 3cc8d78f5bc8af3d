module Xml = Txq_xml.Xml
module Path = Txq_xml.Path
module Parse = Txq_xml.Parse
module Print = Txq_xml.Print
module Timestamp = Txq_temporal.Timestamp
module Clock = Txq_temporal.Clock
module Glob = Txq_core.Glob

type stored_doc = {
  mutable versions : (Timestamp.t * string) list;  (** newest first *)
  mutable deleted : Timestamp.t option;
}

type t = {
  clock : Clock.t;
  docs : (string, stored_doc list ref) Hashtbl.t;  (** newest incarnation first *)
  mutable bytes : int;
  mutable parsed : int;
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.create () in
  { clock; docs = Hashtbl.create 64; bytes = 0; parsed = 0 }

let commit_ts t = function
  | None -> Clock.tick t.clock
  | Some ts ->
    Clock.set t.clock ts;
    ts

let bucket t url =
  match Hashtbl.find_opt t.docs url with
  | Some b -> b
  | None ->
    let b = ref [] in
    Hashtbl.replace t.docs url b;
    b

let live t url =
  match Hashtbl.find_opt t.docs url with
  | None -> None
  | Some b -> (
    match !b with
    | d :: _ when d.deleted = None -> Some d
    | _ -> None)

let store t doc ts xml =
  let s = Print.to_string (Xml.normalize xml) in
  t.bytes <- t.bytes + String.length s;
  doc.versions <- (ts, s) :: doc.versions

let insert_document t ~url ?ts xml =
  (match live t url with
   | Some _ ->
     invalid_arg (Printf.sprintf "Stratum.insert_document: %s already exists" url)
   | None -> ());
  let ts = commit_ts t ts in
  let doc = { versions = []; deleted = None } in
  store t doc ts xml;
  let b = bucket t url in
  b := doc :: !b

let update_document t ~url ?ts xml =
  match live t url with
  | None ->
    invalid_arg (Printf.sprintf "Stratum.update_document: no live document at %s" url)
  | Some doc ->
    let ts = commit_ts t ts in
    store t doc ts xml

let delete_document t ~url ?ts () =
  match live t url with
  | None ->
    invalid_arg (Printf.sprintf "Stratum.delete_document: no live document at %s" url)
  | Some doc -> doc.deleted <- Some (commit_ts t ts)

let stored_pages t = (t.bytes + 4095) / 4096
let versions_parsed t = t.parsed
let reset_counters t = t.parsed <- 0

(* --- evaluation ---------------------------------------------------------- *)

exception Fail of Exec.error

let unsupported fmt =
  Printf.ksprintf (fun s -> raise (Fail (Exec.Unsupported s))) fmt

let parse_version t s =
  t.parsed <- t.parsed + 1;
  Parse.parse_exn s

(* A row binds variables to (node, version timestamp). *)
type row_binding = { rb_node : Xml.t; rb_time : Timestamp.t }
type row = (string * row_binding) list

let binding row v =
  match List.assoc_opt v row with
  | Some rb -> rb
  | None -> raise (Fail (Exec.Unknown_variable v))

let doc_versions t src =
  match src.Ast.src_kind with
  | Ast.Doc -> (
    match Hashtbl.find_opt t.docs src.Ast.src_url with
    | None -> []
    | Some b -> !b)
  | Ast.Collection ->
    Hashtbl.fold
      (fun url b acc ->
        if Glob.matches ~pattern:src.Ast.src_url url then !b @ acc else acc)
      t.docs []

(* versions of one incarnation valid at [instant] *)
let version_at doc instant =
  if
    (match doc.deleted with
     | Some d -> Timestamp.(instant >= d)
     | None -> false)
  then None
  else
    (* versions are newest first *)
    List.find_opt (fun (ts, _) -> Timestamp.(ts <= instant)) doc.versions

let bind_source t ~now src : row_binding list =
  let select xml =
    if src.Ast.src_path = [] then [xml]
    else Path.select (Path.parse_exn (Path.to_string src.Ast.src_path)) xml
  in
  let incarnations = doc_versions t src in
  match src.Ast.src_time with
  | Ast.Current ->
    List.concat_map
      (fun doc ->
        if doc.deleted <> None then []
        else
          match doc.versions with
          | (ts, s) :: _ ->
            List.map
              (fun n -> { rb_node = n; rb_time = ts })
              (select (parse_version t s))
          | [] -> [])
      incarnations
  | Ast.At texpr ->
    let instant = Ast.resolve_time ~now texpr in
    List.concat_map
      (fun doc ->
        match version_at doc instant with
        | Some (ts, s) ->
          List.map
            (fun n -> { rb_node = n; rb_time = ts })
            (select (parse_version t s))
        | None -> [])
      incarnations
  | Ast.Every ->
    (* every version of every incarnation, oldest first *)
    List.concat_map
      (fun doc ->
        List.concat_map
          (fun (ts, s) ->
            List.map
              (fun n -> { rb_node = n; rb_time = ts })
              (select (parse_version t s)))
          (List.rev doc.versions))
      incarnations

(* --- expressions ----------------------------------------------------------- *)

type value =
  | V_null
  | V_string of string
  | V_number of float
  | V_time of Timestamp.t
  | V_nodes of Xml.t list

let rec eval_expr ~now row : Ast.expr -> value = function
  | Ast.E_string s -> V_string s
  | Ast.E_number f -> V_number f
  | Ast.E_time_lit te -> V_time (Ast.resolve_time ~now te)
  | Ast.E_var v -> V_nodes [(binding row v).rb_node]
  | Ast.E_path (v, path) ->
    V_nodes
      (Path.select_from_children
         (Path.parse_exn (Path.to_string path))
         (binding row v).rb_node)
  | Ast.E_time v -> V_time (binding row v).rb_time
  | Ast.E_create_time _ -> unsupported "CREATE TIME needs element identity (stratum)"
  | Ast.E_delete_time _ -> unsupported "DELETE TIME needs element identity (stratum)"
  | Ast.E_previous _ -> unsupported "PREVIOUS needs element identity (stratum)"
  | Ast.E_next _ -> unsupported "NEXT needs element identity (stratum)"
  | Ast.E_current _ -> unsupported "CURRENT needs element identity (stratum)"
  | Ast.E_diff _ -> unsupported "DIFF needs element identity (stratum)"
  | Ast.E_apply_path (e, path) -> (
    match eval_expr ~now row e with
    | V_nodes nodes ->
      V_nodes
        (List.concat_map
           (Path.select_from_children (Path.parse_exn (Path.to_string path)))
           nodes)
    | V_null -> V_null
    | V_string _ | V_number _ | V_time _ ->
      unsupported "path applied to a non-node value")
  | Ast.E_count _ | Ast.E_sum _ | Ast.E_avg _ ->
    unsupported "aggregate in a non-aggregate position"

type atom =
  | A_string of string
  | A_number of float
  | A_time of Timestamp.t
  | A_node of Xml.t

let atoms = function
  | V_null -> []
  | V_string s -> [A_string s]
  | V_number f -> [A_number f]
  | V_time ts -> [A_time ts]
  | V_nodes ns -> List.map (fun n -> A_node n) ns

let atom_text = function
  | A_string s -> s
  | A_number f -> Ast.number_text f
  | A_time ts -> Timestamp.to_string ts
  | A_node n -> Xml.text_content n

let atom_number = function
  | A_number f -> Some f
  | A_string s -> float_of_string_opt (String.trim s)
  | A_node n -> float_of_string_opt (String.trim (Xml.text_content n))
  | A_time _ -> None

let compare_atoms op a b =
  let by_value op =
    match (a, b) with
    | A_time t1, A_time t2 -> Ast.ordered_holds op (Timestamp.compare t1 t2)
    | _ -> (
      match (atom_number a, atom_number b) with
      | Some x, Some y -> Ast.ordered_holds op (Float.compare x y)
      | _ -> Ast.ordered_holds op (String.compare (atom_text a) (atom_text b)))
  in
  match op with
  | Ast.Identity -> unsupported "== needs element identity (stratum)"
  | Ast.Similar -> (
    match (a, b) with
    | A_node n1, A_node n2 ->
      let module W = Set.Make (String) in
      let wa = W.of_list (Xml.words n1) and wb = W.of_list (Xml.words n2) in
      let u = W.cardinal (W.union wa wb) in
      u = 0
      || float_of_int (W.cardinal (W.inter wa wb)) /. float_of_int u >= 0.6
    | _ -> String.equal (atom_text a) (atom_text b))
  | Ast.Contains ->
    let hay = atom_text a and needle = atom_text b in
    let hl = String.length hay and nl = String.length needle in
    nl = 0
    || (hl >= nl
        && Seq.exists
             (fun i -> String.equal (String.sub hay i nl) needle)
             (Seq.init (hl - nl + 1) Fun.id))
  | Ast.Ordered ((Ast.O_eq | Ast.O_neq) as op) -> (
    match (a, b) with
    | A_node n1, A_node n2 ->
      let eq = Xml.equal n1 n2 in
      if op = Ast.O_eq then eq else not eq
    | _ -> by_value op)
  | Ast.Ordered op -> by_value op

let rec eval_cond ~now row = function
  | Ast.C_and (a, b) -> eval_cond ~now row a && eval_cond ~now row b
  | Ast.C_or (a, b) -> eval_cond ~now row a || eval_cond ~now row b
  | Ast.C_not c -> not (eval_cond ~now row c)
  | Ast.C_cmp (le, op, re) ->
    let la = atoms (eval_expr ~now row le) in
    let ra = atoms (eval_expr ~now row re) in
    List.exists (fun a -> List.exists (fun b -> compare_atoms op a b) ra) la

let value_to_xml = function
  | V_null -> [Ast.atom_xml `Null]
  | V_string s -> [Ast.atom_xml (`String s)]
  | V_number f -> [Ast.atom_xml (`Number f)]
  | V_time ts -> [Ast.atom_xml (`Time ts)]
  | V_nodes ns -> ns

let cartesian lists =
  List.fold_right
    (fun xs acc ->
      List.concat_map (fun x -> List.map (fun rest -> x :: rest) acc) xs)
    lists [[]]

let run t query =
  let now = Clock.now t.clock in
  try
    let per_source =
      List.map
        (fun src ->
          List.map (fun rb -> (src.Ast.src_var, rb)) (bind_source t ~now src))
        query.Ast.from
    in
    let rows : row list = cartesian per_source in
    let rows =
      match query.Ast.where with
      | None -> rows
      | Some cond -> List.filter (fun row -> eval_cond ~now row cond) rows
    in
    let results =
      if Ast.has_aggregates query then begin
        let aggregate_value = function
          | Ast.E_count _ -> V_number (float_of_int (List.length rows))
          | Ast.E_sum e ->
            V_number
              (List.fold_left
                 (fun acc row ->
                   List.fold_left
                     (fun acc a ->
                       match atom_number a with
                       | Some f -> acc +. f
                       | None -> acc)
                     acc
                     (atoms (eval_expr ~now row e)))
                 0.0 rows)
          | Ast.E_avg e ->
            let values =
              List.concat_map
                (fun row ->
                  List.filter_map atom_number (atoms (eval_expr ~now row e)))
                rows
            in
            if values = [] then V_null
            else
              V_number
                (List.fold_left ( +. ) 0.0 values
                /. float_of_int (List.length values))
          | _ -> unsupported "mixing aggregates and row expressions in SELECT"
        in
        [Xml.element "result"
           (List.concat_map
              (fun e -> value_to_xml (aggregate_value e))
              query.Ast.select)]
      end
      else
        List.map
          (fun row ->
            Xml.element "result"
              (List.concat_map
                 (fun e -> value_to_xml (eval_expr ~now row e))
                 query.Ast.select))
          rows
    in
    let results =
      if query.Ast.distinct then begin
        let seen = Hashtbl.create 16 in
        List.filter
          (fun r ->
            let key = Print.to_string r in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.replace seen key ();
              true
            end)
          results
      end
      else results
    in
    Ok (Xml.element "results" results)
  with Fail e -> Error e

let run_string t input =
  match Parser.parse input with
  | Error e -> Error (Exec.Parse_error e)
  | Ok q -> run t q
