(** XML serialization.

    [to_string] produces a compact form whose round-trip through
    {!Parse.parse} is the identity (texts are escaped; whitespace-only text
    nodes are never emitted by the library's own constructors).  [to_pretty]
    is an indented human-readable form for examples and the CLI. *)

val to_string : Xml.t -> string
(** Compact serialization, no added whitespace. *)

val to_pretty : Xml.t -> string
(** Indented serialization (2 spaces per level).  Elements whose children
    are a single text node stay on one line. *)

val pp : Format.formatter -> Xml.t -> unit
(** Pretty form, via {!to_pretty}. *)

val document : Xml.t -> string
(** Compact serialization prefixed by an XML declaration. *)

val add_escaped : Buffer.t -> quot:bool -> string -> unit
(** [add_escaped buf ~quot s] appends [s] with [<], [>] and [&] escaped,
    and also the double quote when [quot] (attribute values): the escaping
    {!to_string} applies, for writers that print XML without building an
    {!Xml.t}. *)

val add_attr : Buffer.t -> string -> string -> unit
(** [add_attr buf name value] appends [ name="value"], the value escaped
    by {!add_escaped} with [~quot:true]. *)
