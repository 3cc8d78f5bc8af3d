(** Abstract syntax of the temporal XML query language.

    The concrete language follows the paper's examples (Section 5): a
    SELECT/FROM/WHERE skeleton in the style of Lorel and the Xyleme query
    language, paths from XPath, plus the temporal constructs — a timestamp
    or [EVERY] qualifier on the [doc(…)] source, [TIME]/[CREATE TIME]/
    [DELETE TIME], [PREVIOUS]/[NEXT]/[CURRENT], [DIFF], and relative time
    arithmetic such as [NOW - 14 DAYS]. *)

type time_expr =
  | T_literal of Txq_temporal.Timestamp.t
  | T_now
  | T_plus of time_expr * Txq_temporal.Duration.t
  | T_minus of time_expr * Txq_temporal.Duration.t

type time_spec =
  | Current  (** no qualifier: the current snapshot *)
  | At of time_expr  (** [doc("…")\[26/01/2001\]] *)
  | Every  (** [doc("…")\[EVERY\]] — all versions *)

type source_kind =
  | Doc  (** [doc("url")] — one URL *)
  | Collection
      (** [collection("glob")] — every URL matching the glob ([*] matches
          any substring); the XML-warehouse query shape, where a scan spans
          the whole crawled collection *)

type source = {
  src_kind : source_kind;
  src_url : string;  (** URL, or glob under [Collection] *)
  src_time : time_spec;
  src_path : Txq_xml.Path.t;  (** steps binding the variable *)
  src_var : string;
}

type expr =
  | E_var of string
  | E_path of string * Txq_xml.Path.t  (** [R/price] *)
  | E_string of string
  | E_number of float
  | E_time_lit of time_expr
  | E_time of string  (** [TIME(R)] *)
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
      (** postfix path on a node-valued expression, e.g.
          [CURRENT(R)/name] *)

(** Comparisons that reduce to a three-way [compare] on atom values.
    Keeping them in their own type makes the evaluators' dispatch total:
    the structural operators ([==], [~], [CONTAINS]) can never reach an
    ordered-only code path. *)
type ordered =
  | O_eq  (** [=] — content equality *)
  | O_neq
  | O_lt
  | O_le
  | O_gt
  | O_ge

type cmp =
  | Ordered of ordered
  | Identity  (** [==] — EID identity (Section 7.4) *)
  | Similar  (** [~] — similarity *)
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

val has_aggregates : query -> bool

val resolve_time :
  now:Txq_temporal.Timestamp.t -> time_expr -> Txq_temporal.Timestamp.t

val ordered_holds : ordered -> int -> bool
(** [ordered_holds op c] interprets a [compare]-style result [c] under
    [op] — the single shared dispatch for every evaluator. *)

val number_text : float -> string
(** A number as results print it: integral values without a fraction. *)

val atom_xml :
  [ `Null
  | `String of string
  | `Number of float
  | `Time of Txq_temporal.Timestamp.t ] ->
  Txq_xml.Xml.t
(** The element a SELECT value that is not a node renders as: [<null/>],
    [<string>s</string>], [<number>n</number>] or [<time>t</time>], so
    adjacent values in one result stay apart.  Every evaluator renders
    through it. *)

type statement =
  | S_query of query  (** a [SELECT …] query *)
  | S_algebra of Txq_algebra.Algebra.t
      (** a temporal-algebra expression over version sets, e.g.
          [doc("a")//name EXCEPT doc("b")//name] *)

val statement_to_string : statement -> string

val to_string : query -> string
