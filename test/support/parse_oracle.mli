(** The scanner this repository shipped before its run-based rewrite: the
    reference [Txq_xml.Parse] is compared against.  Same interface. *)

module Xml = Txq_xml.Xml

(** From-scratch XML parser.

    The sealed build environment has no XML library, so the substrate parses
    its own documents and deltas.  Supported: elements, attributes (single or
    double quoted), character data, the five predefined entities plus decimal
    and hexadecimal character references, comments, processing instructions,
    an XML declaration, a DOCTYPE line (skipped), and CDATA sections.
    Whitespace-only text between elements is dropped unless
    [keep_whitespace] is set. *)

type error = { line : int; column : int; message : string }

exception Parse_error of error

val error_to_string : error -> string

val parse : ?keep_whitespace:bool -> string -> (Xml.t, error) result
(** Parses a complete document with a single root element. *)

val parse_exn : ?keep_whitespace:bool -> string -> Xml.t
(** @raise Parse_error on malformed input. *)
