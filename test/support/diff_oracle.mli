(** The tree diff this repository shipped before its matching state moved
    onto the indexed trees: the reference [Txq_vxml.Diff] is compared
    against.  Same matching, hence the same XIDs and new versions; its
    scripts may hold more moves.  Its documentation follows verbatim. *)

module Vnode = Txq_vxml.Vnode
module Xid = Txq_vxml.Xid
module Delta = Txq_vxml.Delta

(** Tree diff: derive a completed delta between an identified (XID-carrying)
    old version and a plain new version.

    Plays the role XyDiff (Cobena et al. [7]) plays for Xyleme: the commit
    path of the database diffs each incoming document revision against the
    stored current version, propagating XIDs to the nodes that persist and
    allocating fresh XIDs for inserted ones.

    The algorithm is match-then-script, in the style of Chawathe et al.:
    + exact-subtree matching by structural hash catches unchanged and moved
      subtrees;
    + top-down alignment matches remaining children of matched parents by an
      LCS over shallow signatures (tag, or [#text]);
    + script generation walks the new tree in pre-order, emitting renames,
      attribute updates, text updates, moves and inserts against a working
      copy of the old version, then deletes the unmatched remains bottom-up.

    The produced delta applied forward to the old version yields a tree that
    is [deep_equal] to the new document; applied backward to the new version
    it restores the old one exactly (including XIDs). *)

val min_hash_match_size : int
(** Smallest subtree size eligible for exact-hash matching (3). *)

val diff :
  gen:Xid.Gen.t ->
  old_tree:Vnode.t ->
  new_tree:Txq_xml.Xml.t ->
  Delta.t * Vnode.t
(** [diff ~gen ~old_tree ~new_tree] is [(delta, new_version)] where
    [new_version] is [new_tree] with XIDs assigned (persisting XIDs of
    matched nodes) and [delta] the completed edit script from [old_tree] to
    [new_version].  Fresh XIDs are drawn from [gen].  The [from_version] and
    [to_version] fields of the delta are set to [0]/[1]; callers renumber. *)

val diff_vnodes : gen:Xid.Gen.t -> Vnode.t -> Vnode.t -> Delta.t
(** Diff between two already-identified trees, {e ignoring} their XIDs on
    the new side (the right tree is treated as plain XML).  Backs the
    [Diff] query operator, which compares two reconstructed versions. *)
