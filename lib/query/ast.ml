module Timestamp = Txq_temporal.Timestamp
module Duration = Txq_temporal.Duration

type time_expr =
  | T_literal of Timestamp.t
  | T_now
  | T_plus of time_expr * Duration.t
  | T_minus of time_expr * Duration.t

type time_spec =
  | Current
  | At of time_expr
  | Every

type source_kind =
  | Doc
  | Collection

type source = {
  src_kind : source_kind;
  src_url : string;
  src_time : time_spec;
  src_path : Txq_xml.Path.t;
  src_var : string;
}

type expr =
  | E_var of string
  | E_path of string * Txq_xml.Path.t
  | E_string of string
  | E_number of float
  | E_time_lit of time_expr
  | E_time of string
  | E_create_time of string
  | E_delete_time of string
  | E_previous of string
  | E_next of string
  | E_current of string
  | E_diff of expr * expr
  | E_count of expr
  | E_sum of expr
  | E_avg of expr
  | E_apply_path of expr * Txq_xml.Path.t

type ordered =
  | O_eq
  | O_neq
  | O_lt
  | O_le
  | O_gt
  | O_ge

type cmp =
  | Ordered of ordered
  | Identity
  | Similar
  | Contains

type cond =
  | C_cmp of expr * cmp * expr
  | C_and of cond * cond
  | C_or of cond * cond
  | C_not of cond

type query = {
  distinct : bool;
  select : expr list;
  from : source list;
  where : cond option;
}

let rec is_aggregate = function
  | E_count _ | E_sum _ | E_avg _ -> true
  | E_apply_path (e, _) -> is_aggregate e
  | E_var _ | E_path _ | E_string _ | E_number _ | E_time_lit _ | E_time _
  | E_create_time _ | E_delete_time _ | E_previous _ | E_next _ | E_current _
  | E_diff _ -> false

let has_aggregates q = List.exists is_aggregate q.select

let rec resolve_time ~now = function
  | T_literal ts -> ts
  | T_now -> now
  | T_plus (e, d) -> Timestamp.add (resolve_time ~now e) d
  | T_minus (e, d) -> Timestamp.sub (resolve_time ~now e) d

let rec time_expr_to_string = function
  | T_literal ts -> Timestamp.to_string ts
  | T_now -> "NOW"
  | T_plus (e, d) ->
    Printf.sprintf "%s + %s" (time_expr_to_string e) (Duration.to_string d)
  | T_minus (e, d) ->
    Printf.sprintf "%s - %s" (time_expr_to_string e) (Duration.to_string d)

let path_to_string p = Txq_xml.Path.to_string p

let rec expr_to_string = function
  | E_var v -> v
  | E_path (v, p) -> v ^ path_to_string p
  | E_string s -> Printf.sprintf "%S" s
  | E_number f ->
    if Float.is_integer f then string_of_int (int_of_float f)
    else string_of_float f
  | E_time_lit t -> time_expr_to_string t
  | E_time v -> Printf.sprintf "TIME(%s)" v
  | E_create_time v -> Printf.sprintf "CREATE TIME(%s)" v
  | E_delete_time v -> Printf.sprintf "DELETE TIME(%s)" v
  | E_previous v -> Printf.sprintf "PREVIOUS(%s)" v
  | E_next v -> Printf.sprintf "NEXT(%s)" v
  | E_current v -> Printf.sprintf "CURRENT(%s)" v
  | E_diff (a, b) ->
    Printf.sprintf "DIFF(%s,%s)" (expr_to_string a) (expr_to_string b)
  | E_count e -> Printf.sprintf "COUNT(%s)" (expr_to_string e)
  | E_sum e -> Printf.sprintf "SUM(%s)" (expr_to_string e)
  | E_avg e -> Printf.sprintf "AVG(%s)" (expr_to_string e)
  | E_apply_path (e, p) -> expr_to_string e ^ path_to_string p

let ordered_holds op c =
  match op with
  | O_eq -> c = 0
  | O_neq -> c <> 0
  | O_lt -> c < 0
  | O_le -> c <= 0
  | O_gt -> c > 0
  | O_ge -> c >= 0

let number_text f =
  if Float.is_integer f then string_of_int (int_of_float f) else string_of_float f

let atom_xml atom =
  let module Xml = Txq_xml.Xml in
  match atom with
  | `Null -> Xml.element "null" []
  | `String s -> Xml.element "string" [ Xml.text s ]
  | `Number f -> Xml.element "number" [ Xml.text (number_text f) ]
  | `Time t -> Xml.element "time" [ Xml.text (Timestamp.to_string t) ]

let ordered_to_string = function
  | O_eq -> "="
  | O_neq -> "!="
  | O_lt -> "<"
  | O_le -> "<="
  | O_gt -> ">"
  | O_ge -> ">="

let cmp_to_string = function
  | Ordered op -> ordered_to_string op
  | Identity -> "=="
  | Similar -> "~"
  | Contains -> "CONTAINS"

let rec cond_to_string = function
  | C_cmp (a, op, b) ->
    Printf.sprintf "%s %s %s" (expr_to_string a) (cmp_to_string op)
      (expr_to_string b)
  | C_and (a, b) ->
    Printf.sprintf "(%s AND %s)" (cond_to_string a) (cond_to_string b)
  | C_or (a, b) ->
    Printf.sprintf "(%s OR %s)" (cond_to_string a) (cond_to_string b)
  | C_not c -> Printf.sprintf "NOT (%s)" (cond_to_string c)

let source_to_string s =
  let time =
    match s.src_time with
    | Current -> ""
    | Every -> "[EVERY]"
    | At t -> Printf.sprintf "[%s]" (time_expr_to_string t)
  in
  let kind =
    match s.src_kind with
    | Doc -> "doc"
    | Collection -> "collection"
  in
  Printf.sprintf "%s(%S)%s%s %s" kind s.src_url time (path_to_string s.src_path)
    s.src_var

let to_string q =
  Printf.sprintf "SELECT %s%s FROM %s%s"
    (if q.distinct then "DISTINCT " else "")
    (String.concat ", " (List.map expr_to_string q.select))
    (String.concat ", " (List.map source_to_string q.from))
    (match q.where with
     | None -> ""
     | Some c -> " WHERE " ^ cond_to_string c)

type statement =
  | S_query of query
  | S_algebra of Txq_algebra.Algebra.t

let statement_to_string = function
  | S_query q -> to_string q
  | S_algebra a -> Txq_algebra.Algebra.to_string a
