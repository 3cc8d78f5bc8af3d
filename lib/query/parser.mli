(** Recursive-descent parser for the query language of Section 5.

    Accepted shape:
    {v
    SELECT [DISTINCT] expr, …
    FROM doc("url")[timespec]/path/steps VAR, …
    [WHERE cond [AND|OR cond]…]
    v}
    where [timespec] is a date ([26/01/2001]), relative time
    ([NOW - 14 DAYS]) or [EVERY]; expressions include [VAR/path],
    [TIME(VAR)], [CREATE TIME(VAR)], [DELETE TIME(VAR)], [PREVIOUS(VAR)],
    [NEXT(VAR)], [CURRENT(VAR)], [DIFF(a,b)], [COUNT]/[SUM]/[AVG]; and
    comparison operators are [= != < <= > >= == ~ CONTAINS]. *)

val parse : string -> (Ast.query, string) result
val parse_exn : string -> Ast.query

val parse_statement : string -> (Ast.statement, string) result
(** A statement is either a [SELECT] query or a temporal-algebra
    expression:
    {v
    alg      := alg_join ((UNION | INTERSECT | EXCEPT) alg_join)*
    alg_join := alg_prim ((JOIN | LEFTJOIN | SEMIJOIN | ANTIJOIN)
                           [ON (DOC | ANCESTOR | ALWAYS)] alg_prim)*
    alg_prim := (doc | collection)("url")/path ['=' "word"]
              | COUNT [BY DOC] '(' alg ')'
              | '(' alg ')'
    v}
    Set and join operators are left-associative, joins bind tighter, and
    a join without an [ON] clause defaults to [ON DOC]. *)
