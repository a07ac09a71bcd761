(** Hash-consed canonical keys for join paths, attribute sets, join
    conditions, rules and relation profiles.

    Join paths and attribute sets are balanced trees whose shapes
    depend on insertion order, so they cannot be hashed structurally;
    their canonical forms (sorted element lists, and for conditions the
    oriented {!Joinpath.Cond.pairs}) can. Each distinct canonical form
    gets a small int id. Ids are process-global — shared by every
    policy in the process and never freed — so a derived rule seen by
    one closure keeps its id for the next, and duplicate detection is a
    hash lookup plus an int test instead of a structural [compare]
    walk. {!Authorization.make} interns every rule it builds and stores
    its ids in the rule. *)

open Relalg

(** [path_id p] interns the canonical form of [p]
    ({!Joinpath.Cond.pairs} of its sorted conditions). Equal paths get
    equal ids. *)
val path_id : Joinpath.t -> int

(** Like {!path_id} but never allocates a fresh id: [None] means no
    rule anywhere has used this path, so no closed policy can admit
    it. *)
val find_path : Joinpath.t -> int option

(** Interned sorted-element form of an attribute set. *)
val attrs_id : Attribute.Set.t -> int

(** Interned canonical ({!Joinpath.Cond.pairs}) form of a single join
    condition — the chase keys its path-union memo on it. *)
val cond_id : Joinpath.Cond.t -> int

(** Interned [(server, attrs_id, path_id)] triple — the identity of a
    rule, which {!Authorization.make} stores in the rule. The chase
    calls it to dedupe a candidate merge before building the rule. *)
val rule_id_of : Server.t -> attrs_id:int -> path_id:int -> int

(** Interned [(attrs_id pi, path_id join, attrs_id sigma)] triple — the
    identity of a relation profile: equal ids iff [Profile.equal]. The
    knowledge-saturation pass keys its fixpoint on it. *)
val profile_id_of : pi_id:int -> path_id:int -> sigma_id:int -> int
