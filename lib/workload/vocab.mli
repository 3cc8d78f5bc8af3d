(** Vocabulary with a Zipfian word distribution.

    Document text in real corpora is heavily skewed; posting-list lengths —
    and therefore pattern-scan join costs — depend on that skew, so the
    generators draw words Zipf-distributed over a synthetic vocabulary. *)

type t

val create : ?size:int -> ?exponent:float -> Rng.t -> t
(** [size] words (default 2000), Zipf [exponent] (default 1.1). *)

val word : t -> string
(** One word, Zipf-ranked. *)

val words : t -> int -> string
(** A sentence of [n] words, space-separated. *)

val size : t -> int

val restaurant_names : string array
val street_names : string array
val cuisines : string array
val cities : string array
