(** Versioned XML trees: plain XML plus persistent XIDs on every node.

    This is the in-memory form of a stored document version (Section 4):
    a tree whose elements (and text nodes) carry XIDs that survive from one
    version of the document to the next. *)

type t =
  | Elem of elem
  | Text of { xid : Xid.t; content : string }

and elem = {
  xid : Xid.t;
  tag : string;
  attrs : (string * string) list;
      (** In canonical order, see {!sort_attrs}. *)
  children : t list;
}

val xid : t -> Xid.t

val sort_attrs : (string * string) list -> (string * string) list
(** The canonical attribute order: by name, then value.  Deltas carry no
    attribute positions, so every tree the store builds (from a document,
    by the diff, by applying a delta either way) holds its attributes in
    this order; a version then renders identically however it was
    reached. *)

val of_xml : Xid.Gen.t -> Txq_xml.Xml.t -> t
(** Assigns fresh XIDs to every node, document order; attributes are put
    in canonical order. *)

val to_xml : t -> Txq_xml.Xml.t
(** Strips the XIDs. *)

val deep_equal : t -> t -> bool
(** Structural equality {e ignoring} XIDs — the content-based [=] of
    Section 7.4.  Attribute order is insignificant, per the XML
    recommendation. *)

val equal_with_xids : t -> t -> bool
(** Structural equality including XIDs; two reconstructions of the same
    version must satisfy this. *)

val structural_hash : t -> int
(** Hash of the XID-free structure; equal trees (by {!deep_equal}) hash
    equally.  Used by the diff's subtree matching. *)

val size : t -> int

val approx_bytes : t -> int
(** Rough in-memory footprint of the tree, for cache budgeting. *)

val find : t -> Xid.t -> t option
(** Node with the given XID, if present in the tree. *)

val xids : t -> Xid.t list
(** All XIDs in the tree, pre-order. *)

val max_xid : t -> Xid.t option

val attr : t -> string -> string option
val text_content : t -> string
val tag : t -> string option
val children : t -> t list

type occurrence_kind =
  | Tag  (** an element name *)
  | Word  (** a word from text content, an attribute name or value *)

val iter_occurrences :
  (string -> occurrence_kind -> Xid.t array -> unit) -> t -> unit
(** [iter_occurrences f tree] calls [f word kind path] for every occurrence
    in the tree, in document order, duplicates included: each element's
    name as a [Tag], then its attribute names and the
    {!Txq_xml.Xml.split_words} tokens of their values, then the tokens of
    its text children, as [Word]s.  [path] holds the XIDs from the root to
    the occurrence's element: a [Tag] path ends with the element's own
    XID, and a [Word] carries the path of its enclosing element (a bare
    text root's words carry the empty path).  Parent and ancestor tests in
    the pattern-scan join are prefix tests on these paths (Section 7.2's
    "information that can be used to determine hierarchical
    relationships").  One path array is allocated per element and shared
    by all of that element's occurrences; [f] must not mutate it. *)

(** Which elements {!iter_marked_occurrences} enumerates. *)
type mark =
  | Unmarked  (** skip the element's own occurrences *)
  | Marked  (** enumerate the element's own occurrences *)
  | Marked_subtree  (** enumerate the element and everything below it *)

val iter_marked_occurrences :
  (elem -> mark) -> (string -> occurrence_kind -> Xid.t array -> unit) ->
  t -> unit
(** [iter_marked_occurrences mark f tree] is {!iter_occurrences} restricted
    to the elements [mark] selects: an element's own occurrences (its name,
    its attributes, the words of its text children) are enumerated when
    [mark] gives [Marked] or [Marked_subtree] for it, or [Marked_subtree]
    for an ancestor; [mark] is not asked below a [Marked_subtree].  A path
    array is allocated only for enumerated elements.  The words of a bare
    text root are always enumerated.  [iter_occurrences] is this walk with
    every element marked. *)

val pp : Format.formatter -> t -> unit
(** Debug form showing XIDs. *)
