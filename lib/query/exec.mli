(** Query executor: compiles the AST onto the operator algebra of
    [txq_core] and evaluates it.

    Source compilation (Section 6.2's operator mappings):
    - a source with a timestamp → TPatternScan at that time (Q1);
    - a source with [EVERY] → TPatternScanAll, then per-element version
      expansion with coalescing of unchanged states (Q3);
    - no qualifier → PatternScan over current versions;
    - an empty source path binds document roots through the delta index
      (no FTI involved).

    Simple equality predicates ([R/name = "Napoli"]) are pushed into the
    pattern as word tests and re-verified after reconstruction, the
    containment-then-test strategy of Section 6.1.  [COUNT] over snapshot
    sources runs without reconstruction (the Q2 observation).

    There is one evaluator.  Each source is planned once and bound under
    one ["query.bind_source"] span; the sources' cartesian product then
    streams through WHERE, SELECT and DISTINCT, one row at a time.
    {!stream_statement} hands the rows to its caller; every other entry
    point collects them into the [<results>] document.

    When {!Txq_db.Config.planner} is on (the default), the cost-based
    planner ({!Txq_planner.Planner}) makes the plan choices: pattern join
    legs reorder by estimated selectivity, provably-empty scans are
    skipped, CreTime/DelTime pick their strategy from estimated chain
    depth, and algebra operators evaluate their cheaper input first.  The
    statement entry points ([run_statement], [stream_statement],
    [explain_statement], [explain_analyze_statement] and the [_string]
    forms) also pass the statement through the rewrite rules first.
    Every choice is output-preserving: planner-on and planner-off results
    are byte-identical.  [run], [run_algebra] and [explain_analyze] never
    rewrite: they evaluate the statement as written, the differential
    baseline for the rewrite rules. *)

type error =
  | Parse_error of string
  | Unknown_variable of string
  | Unsupported of string
  | Internal of string
      (** anything the evaluator leaked beyond its typed failures —
          including stack overflow on adversarially deep input.  The
          entry points below never raise on any input: a daemon serving
          untrusted statements depends on it. *)

val error_to_string : error -> string

val run : Txq_db.Db.t -> Ast.query -> (Txq_xml.Xml.t, error) result
(** Evaluates the query at the database's current NOW; the result document
    is [<results><result>…</result>…</results>] (Section 5). *)

val run_algebra :
  Txq_db.Db.t -> Txq_algebra.Algebra.t -> (Txq_xml.Xml.t, error) result
(** Evaluates a temporal-algebra expression: {!Txq_algebra.Algebra.validate},
    then {!Txq_algebra.Timeline.of_db} (under an ["algebra.timeline"] span),
    then {!Txq_algebra.Algebra.eval}; the result document is
    [<results><row>…<valid>…</valid></row>…</results>].  A validation
    failure is [Unsupported]. *)

val run_statement :
  Txq_db.Db.t -> Ast.statement -> (Txq_xml.Xml.t, error) result
(** Rewrites then plans the statement when the planner is on; queries
    otherwise run exactly as written.  The result document holds the rows
    {!stream_statement} emits. *)

val run_string : Txq_db.Db.t -> string -> (Txq_xml.Xml.t, error) result
(** Parse (as a statement: query or algebra expression) and run. *)

val run_string_exn : Txq_db.Db.t -> string -> Txq_xml.Xml.t

val stream_statement :
  Txq_db.Db.t -> Ast.statement -> on_row:(Txq_xml.Xml.t -> unit) ->
  (int, error) result
(** Evaluates the statement, calling [on_row] once per result element in
    result order, and returns the number of rows emitted.  {!run_statement}
    collects this same stream, so wrapping the emitted elements in
    [<results>…</results>] reproduces its result document byte for byte
    (a zero-row stream corresponds to the empty [<results/>]).  Every
    source is planned and scanned before the first row; [EVERY] sources
    then expand their version histories lazily, one scan binding at a
    time, so arbitrarily large history scans stream in bounded memory.
    Aggregates still materialize their row set (they produce a single
    output row).  An exception raised by [on_row] aborts evaluation and
    surfaces as [Error (Internal _)]. *)

val explain : Txq_db.Db.t -> Ast.query -> string
(** Human-readable evaluation plan: which of the paper's operators each
    source compiles to (PatternScan / TPatternScan / TPatternScanAll /
    delta-index root binding), the pattern tree after predicate pushdown,
    and how the SELECT list is produced.  With the planner on, each
    pattern source also shows its estimated row count, the per-word-test
    index cardinalities with the chosen route (A1 vs A2), and the planned
    domain fan-out.  Purely informational; computing it runs nothing. *)

val explain_statement : Txq_db.Db.t -> Ast.statement -> string

val explain_string : Txq_db.Db.t -> string -> (string, error) result

val explain_analyze :
  Txq_db.Db.t -> Ast.query -> (Txq_xml.Xml.t, error) result * string
(** The plan of {!explain} followed by an execution profile: the query is
    actually run (as {!run} does, unrewritten) under
    {!Txq_obs.Trace.collect}, and the report appends
    per-operator call counts, cumulative wall time, estimated vs actual
    row counts with an [est_err] ratio column (the smoothed symmetric
    ratio [max((est+1)/(act+1), (act+1)/(est+1))]; ["-"] for operators
    the planner does not estimate), summed integer span attributes
    (deltas applied, postings scanned, vcache hits, …) and the raw span
    tree(s).  Works whether or not a trace sink is installed.  Returns
    the run's result alongside the report. *)

val explain_analyze_statement :
  Txq_db.Db.t -> Ast.statement -> (Txq_xml.Xml.t, error) result * string
(** {!explain_analyze} generalized to statements; an algebra statement's
    profile reports per-algebra-node spans (["algebra.union"],
    ["algebra.join"], …) with call counts, timings and row counters. *)

val explain_analyze_string : Txq_db.Db.t -> string -> (string, error) result
