(** Plain (unversioned) XML trees.

    This is the value space of query inputs and results: the paper assumes
    documents are forests of trees (Section 4), queries return their results
    wrapped in a [<results>] document (Section 5), and edit scripts are
    themselves XML (Section 6.1). *)

type attribute = { attr_name : string; attr_value : string }

type t =
  | Element of element
  | Text of string

and element = { tag : string; attrs : attribute list; children : t list }

val element : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t

val tag : t -> string option
val attrs : t -> attribute list
val children : t -> t list

val attr : t -> string -> string option
(** Value of the named attribute, if the node is an element carrying it. *)

val is_text : t -> bool

val text_content : t -> string
(** Concatenation of all text descendants, in document order. *)

val child_elements : t -> t list

val find_child : t -> string -> t option
(** First child element with the given tag. *)

val find_children : t -> string -> t list

val equal : t -> t -> bool
(** Deep structural equality: same tags, attributes (order-insensitive, per
    the XML recommendation), text, and children.  This is the "deep
    equality" reading of [=] discussed in Section 7.4. *)

val shallow_equal : t -> t -> bool
(** Equality of the node itself only: same tag and attributes for elements
    (children ignored), same content for texts. *)

val compare : t -> t -> int
(** An arbitrary total order (for use in sets/maps).  Unlike {!equal} it is
    sensitive to attribute order: [equal a b] does not imply
    [compare a b = 0]. *)

val size : t -> int
(** Number of nodes in the tree. *)

val depth : t -> int

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all nodes. *)

val iter : (t -> unit) -> t -> unit

val split_words : string -> string list
(** The one tokenizer of the system: splits on whitespace and the common
    punctuation separators (comma, semicolon, full stop, [!], [?],
    parentheses and the double quote), dropping empty tokens.
    {!words}, the version-content and delta full-text indexes and the
    similarity test all tokenize through it, so a word findable in one is
    findable in the others. *)

val words : t -> string list
(** All words occurring in the tree, in document order: element names,
    attribute names, and the {!split_words} tokens of attribute values
    and text — "all
    words in the documents, including element names" (Section 7.2). *)

val normalize : t -> t
(** DOM-style normalization: merges adjacent text children and drops empty
    text nodes, recursively.  Serialization cannot distinguish adjacent text
    nodes, so the database normalizes every document on ingestion. *)

val is_normalized : t -> bool
