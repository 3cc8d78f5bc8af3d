(** Sets of version-number ranges.

    The temporal multiway join of TPatternScanAll (Section 7.3.2) intersects
    the validity of postings: "words in the pattern valid at same time".
    Validity here is in version numbers (half-open [\[a, b)] ranges); the
    delta index maps them back to timestamps. *)

type t = (int * int) list
(** Sorted, pairwise disjoint, non-adjacent, each [a < b]. *)

val empty : t
val whole : t
(** All versions ([0, max_int)). *)

val singleton : int -> int -> t
(** [singleton a b] = [\[a, b)]; empty if [b <= a]. *)

val of_list : (int * int) list -> t
(** Normalizes an arbitrary range list. *)

val is_empty : t -> bool
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t

val coalesce : t list -> t
(** N-way union: normalizes any list of range sets into one sorted,
    disjoint, non-adjacent set (adjacent ranges merge: [\[1,3)] and
    [\[3,5)] coalesce to [\[1,5)]).  The call sites that used to hand-roll
    this (per-instant re-coalescing, aggregate segment merging) share this
    one definition. *)

val diff : t -> t -> t
(** [diff a b] is the set difference [a \ b].  Open-ended ranges
    ([b = max_int]) survive: subtracting a bounded set from an unbounded
    one leaves an unbounded remainder, and subtracting an unbounded set
    truncates without overflow. *)

val split_points : t list -> int list
(** Sorted, distinct endpoints of every range in every input set.
    Consecutive pairs delimit the elementary segments on which membership
    of each input is constant — the split step of interval-split
    aggregation ([max_int] appears as the final point when any input is
    unbounded). *)

val to_list : t -> (int * int) list
val pp : Format.formatter -> t -> unit
