open Lexer

exception Parse_failure of string

type state = { toks : token array; mutable pos : int; mutable depth : int }

(* Recursion in this parser (and in the evaluator walking its output) is
   bounded by expression nesting, which untrusted input controls; cap it
   so adversarially deep statements fail with a parse error instead of a
   stack overflow. *)
let max_nesting = 400

let nested st f =
  st.depth <- st.depth + 1;
  if st.depth > max_nesting then
    raise (Parse_failure "statement nesting too deep");
  let r = f () in
  st.depth <- st.depth - 1;
  r

let peek st = st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else EOF
let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise
    (Parse_failure
       (Printf.sprintf "%s (at token %d: %s)" msg st.pos
          (token_to_string (peek st))))

let expect st t msg =
  if peek st = t then advance st else fail st ("expected " ^ msg)

let expect_kw st kw = expect st (KW kw) kw

let ident st =
  match peek st with
  | IDENT s ->
    advance st;
    s
  | _ -> fail st "expected an identifier"

(* --- time expressions -------------------------------------------------- *)

let parse_date st =
  match peek st with
  | NUMBER d -> (
    advance st;
    expect st SLASH "'/' in date";
    match peek st with
    | NUMBER m -> (
      advance st;
      expect st SLASH "'/' in date";
      match peek st with
      | NUMBER y -> (
        advance st;
        match
          (int_of_string_opt d, int_of_string_opt m, int_of_string_opt y)
        with
        | Some day, Some month, Some year -> (
          try Txq_temporal.Timestamp.of_date ~day ~month ~year
          with Invalid_argument e -> fail st e)
        | _ -> fail st "malformed date")
      | _ -> fail st "expected year")
    | _ -> fail st "expected month")
  | _ -> fail st "expected a date"

let parse_duration st =
  match peek st with
  | NUMBER n -> (
    advance st;
    match peek st with
    | IDENT unit -> (
      advance st;
      try Txq_temporal.Duration.of_string (n ^ " " ^ unit)
      with Invalid_argument _ -> fail st ("unknown time unit " ^ unit))
    | _ -> fail st "expected a time unit (DAYS, WEEKS, …)")
  | _ -> fail st "expected a number before the time unit"

let rec parse_time_suffix st base =
  match peek st with
  | PLUS ->
    advance st;
    parse_time_suffix st (Ast.T_plus (base, parse_duration st))
  | MINUS ->
    advance st;
    parse_time_suffix st (Ast.T_minus (base, parse_duration st))
  | _ -> base

let parse_time_expr st =
  let base =
    match peek st with
    | KW "NOW" ->
      advance st;
      Ast.T_now
    | NUMBER _ -> Ast.T_literal (parse_date st)
    | _ -> fail st "expected NOW or a date"
  in
  parse_time_suffix st base

(* --- paths -------------------------------------------------------------- *)

let parse_path_steps st =
  let steps = ref [] in
  let rec go () =
    match peek st with
    | SLASH | DSLASH ->
      let axis =
        if peek st = SLASH then Txq_xml.Path.Child else Txq_xml.Path.Descendant
      in
      advance st;
      (match peek st with
       | IDENT name ->
         advance st;
         steps := { Txq_xml.Path.axis; name } :: !steps;
         go ()
       | _ -> fail st "expected a step name after '/'")
    | _ -> ()
  in
  go ();
  List.rev !steps

(* --- expressions --------------------------------------------------------- *)

let var_arg st =
  expect st LPAREN "'('";
  let v = ident st in
  expect st RPAREN "')'";
  v

let rec parse_expr st =
  let e = parse_primary st in
  (* postfix path on node-valued expressions: CURRENT(R)/name *)
  match (e, peek st) with
  | (Ast.E_var _ | Ast.E_path _), _ -> e (* paths already consumed *)
  | _, (SLASH | DSLASH) -> Ast.E_apply_path (e, parse_path_steps st)
  | _, _ -> e

and parse_primary st =
  nested st @@ fun () ->
  match peek st with
  | STRING s ->
    advance st;
    Ast.E_string s
  | KW "TIME" ->
    advance st;
    Ast.E_time (var_arg st)
  | KW "CREATE" ->
    advance st;
    expect_kw st "TIME";
    Ast.E_create_time (var_arg st)
  | KW "DELETE" ->
    advance st;
    expect_kw st "TIME";
    Ast.E_delete_time (var_arg st)
  | KW "PREVIOUS" ->
    advance st;
    Ast.E_previous (var_arg st)
  | KW "NEXT" ->
    advance st;
    Ast.E_next (var_arg st)
  | KW "CURRENT" ->
    advance st;
    Ast.E_current (var_arg st)
  | KW "DIFF" ->
    advance st;
    expect st LPAREN "'('";
    let a = parse_expr st in
    expect st COMMA "','";
    let b = parse_expr st in
    expect st RPAREN "')'";
    Ast.E_diff (a, b)
  | KW "COUNT" ->
    advance st;
    expect st LPAREN "'('";
    let e = parse_expr st in
    expect st RPAREN "')'";
    Ast.E_count e
  | KW "SUM" ->
    advance st;
    expect st LPAREN "'('";
    let e = parse_expr st in
    expect st RPAREN "')'";
    Ast.E_sum e
  | KW "AVG" ->
    advance st;
    expect st LPAREN "'('";
    let e = parse_expr st in
    expect st RPAREN "')'";
    Ast.E_avg e
  | KW "NOW" -> Ast.E_time_lit (parse_time_expr st)
  | NUMBER n ->
    (* a date when followed by /NUMBER/NUMBER, else a number *)
    if peek2 st = SLASH then Ast.E_time_lit (parse_time_expr st)
    else begin
      advance st;
      match float_of_string_opt n with
      | Some f -> Ast.E_number f
      | None -> fail st "malformed number"
    end
  | IDENT v -> (
    advance st;
    match peek st with
    | SLASH | DSLASH -> Ast.E_path (v, parse_path_steps st)
    | _ -> Ast.E_var v)
  | _ -> fail st "expected an expression"

(* --- conditions ------------------------------------------------------------ *)

let parse_cmp_op st =
  match peek st with
  | EQ -> advance st; Ast.Ordered Ast.O_eq
  | NEQ -> advance st; Ast.Ordered Ast.O_neq
  | LT -> advance st; Ast.Ordered Ast.O_lt
  | LE -> advance st; Ast.Ordered Ast.O_le
  | GT -> advance st; Ast.Ordered Ast.O_gt
  | GE -> advance st; Ast.Ordered Ast.O_ge
  | IDEQ -> advance st; Ast.Identity
  | TILDE -> advance st; Ast.Similar
  | KW "CONTAINS" -> advance st; Ast.Contains
  | _ -> fail st "expected a comparison operator"

let rec parse_cond st = parse_or st

and parse_or st =
  nested st @@ fun () ->
  let left = parse_and st in
  if peek st = KW "OR" then begin
    advance st;
    Ast.C_or (left, parse_or st)
  end
  else left

and parse_and st =
  nested st @@ fun () ->
  let left = parse_unary st in
  if peek st = KW "AND" then begin
    advance st;
    Ast.C_and (left, parse_and st)
  end
  else left

and parse_unary st =
  nested st @@ fun () ->
  match peek st with
  | KW "NOT" ->
    advance st;
    Ast.C_not (parse_unary st)
  | LPAREN ->
    advance st;
    let c = parse_cond st in
    expect st RPAREN "')'";
    c
  | _ ->
    let left = parse_expr st in
    let op = parse_cmp_op st in
    let right = parse_expr st in
    Ast.C_cmp (left, op, right)

(* --- sources ----------------------------------------------------------------- *)

let parse_source st =
  let kind =
    match peek st with
    | KW "DOC" ->
      advance st;
      Ast.Doc
    | KW "COLLECTION" ->
      advance st;
      Ast.Collection
    | _ -> fail st "expected doc(...) or collection(...)"
  in
  expect st LPAREN "'(' after the source keyword";
  let url =
    match peek st with
    | STRING s ->
      advance st;
      s
    | _ -> fail st "expected a quoted URL"
  in
  expect st RPAREN "')'";
  let time =
    if peek st = LBRACKET then begin
      advance st;
      let spec =
        if peek st = KW "EVERY" then begin
          advance st;
          Ast.Every
        end
        else Ast.At (parse_time_expr st)
      in
      expect st RBRACKET "']'";
      spec
    end
    else Ast.Current
  in
  let path = parse_path_steps st in
  let var = ident st in
  { Ast.src_kind = kind; src_url = url; src_time = time; src_path = path;
    src_var = var }

(* --- query --------------------------------------------------------------------- *)

let parse_query st =
  expect_kw st "SELECT";
  let distinct =
    if peek st = KW "DISTINCT" then begin
      advance st;
      true
    end
    else false
  in
  let rec exprs acc =
    let e = parse_expr st in
    if peek st = COMMA then begin
      advance st;
      exprs (e :: acc)
    end
    else List.rev (e :: acc)
  in
  let select = exprs [] in
  expect_kw st "FROM";
  let rec sources acc =
    let s = parse_source st in
    if peek st = COMMA then begin
      advance st;
      sources (s :: acc)
    end
    else List.rev (s :: acc)
  in
  let from = sources [] in
  let where =
    if peek st = KW "WHERE" then begin
      advance st;
      Some (parse_cond st)
    end
    else None
  in
  if peek st <> EOF then fail st "unexpected trailing input";
  { Ast.distinct; select; from; where }

(* --- algebra statements -------------------------------------------------- *)

(* alg      := alg_join ((UNION | INTERSECT | EXCEPT) alg_join)*
   alg_join := alg_prim ((JOIN | LEFTJOIN | SEMIJOIN | ANTIJOIN)
                          [ON (DOC | ANCESTOR | ALWAYS)] alg_prim)*
   alg_prim := (doc | collection) '(' STRING ')' path ['=' STRING]
             | COUNT [BY DOC] '(' alg ')'
             | '(' alg ')'
   Set and join operators are left-associative; joins bind tighter.  A
   join with no ON clause defaults to ON DOC. *)

module Alg = Txq_algebra.Algebra

let parse_alg_leaf st kind =
  expect st LPAREN "'(' after the source keyword";
  let url =
    match peek st with
    | STRING s ->
      advance st;
      s
    | _ -> fail st "expected a quoted URL"
  in
  expect st RPAREN "')'";
  let path = parse_path_steps st in
  let word =
    if peek st = EQ then begin
      advance st;
      match peek st with
      | STRING s ->
        advance st;
        Some s
      | _ -> fail st "expected a quoted word after '='"
    end
    else None
  in
  Alg.Scan
    {
      Alg.l_kind = kind;
      l_url = url;
      l_path = Txq_xml.Path.to_string path;
      l_word = word;
    }

let rec parse_alg st =
  let rec go left =
    match peek st with
    | KW "UNION" ->
      advance st;
      go (Alg.Set (Alg.Union, left, parse_alg_join st))
    | KW "INTERSECT" ->
      advance st;
      go (Alg.Set (Alg.Intersect, left, parse_alg_join st))
    | KW "EXCEPT" ->
      advance st;
      go (Alg.Set (Alg.Except, left, parse_alg_join st))
    | _ -> left
  in
  go (parse_alg_join st)

and parse_alg_join st =
  let join_kind st =
    match peek st with
    | KW "JOIN" -> Some Alg.Join
    | KW "LEFTJOIN" -> Some Alg.Left_join
    | KW "SEMIJOIN" -> Some Alg.Semi_join
    | KW "ANTIJOIN" -> Some Alg.Anti_join
    | _ -> None
  in
  let rec go left =
    match join_kind st with
    | None -> left
    | Some k ->
      advance st;
      let on =
        if peek st = KW "ON" then begin
          advance st;
          match peek st with
          | KW "DOC" ->
            advance st;
            Alg.On_doc
          | KW "ANCESTOR" ->
            advance st;
            Alg.On_ancestor
          | KW "ALWAYS" ->
            advance st;
            Alg.On_always
          | _ -> fail st "expected DOC, ANCESTOR or ALWAYS after ON"
        end
        else Alg.On_doc
      in
      go (Alg.Joinop (k, on, left, parse_alg_prim st))
  in
  go (parse_alg_prim st)

and parse_alg_prim st =
  nested st @@ fun () ->
  match peek st with
  | KW "DOC" ->
    advance st;
    parse_alg_leaf st Alg.Doc
  | KW "COLLECTION" ->
    advance st;
    parse_alg_leaf st Alg.Collection
  | KW "COUNT" ->
    advance st;
    let key =
      if peek st = KW "BY" then begin
        advance st;
        expect_kw st "DOC";
        Alg.By_doc
      end
      else Alg.By_all
    in
    expect st LPAREN "'(' after COUNT";
    let a = parse_alg st in
    expect st RPAREN "')'";
    Alg.Group (key, a)
  | LPAREN ->
    advance st;
    let a = parse_alg st in
    expect st RPAREN "')'";
    a
  | _ -> fail st "expected doc(...), collection(...), COUNT or '('"

let parse_statement_tokens st =
  if peek st = KW "SELECT" then Ast.S_query (parse_query st)
  else begin
    let a = parse_alg st in
    if peek st <> EOF then fail st "unexpected trailing input";
    Ast.S_algebra a
  end

(* --- entry points --------------------------------------------------------- *)

let with_tokens input f =
  match Lexer.tokenize input with
  | Error e -> Error e
  | Ok toks -> (
    let st = { toks = Array.of_list toks; pos = 0; depth = 0 } in
    try Ok (f st) with Parse_failure msg -> Stdlib.Error msg)

let parse input = with_tokens input parse_query

let parse_exn input =
  match parse input with
  | Ok q -> q
  | Error msg -> invalid_arg ("Parser.parse_exn: " ^ msg)

let parse_statement input = with_tokens input parse_statement_tokens
