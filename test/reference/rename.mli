(** The variable rename as the library wrote it with generic hash tables,
    kept as the reference that {!Bdd.Ops.rename} must match node for node:
    the same result id and the same [mk] calls, in the same order; and the
    general substitution it fell back on. *)

val subst : Bdd.Manager.t -> int -> (int -> int option) -> int
(** [subst m f lookup] simultaneously substitutes [lookup v] (a node) for
    every variable [v] of [f] where [lookup v] is [Some _]. *)

val rename : Bdd.Manager.t -> int -> (int * int) list -> int
(** [rename m f pairs] renames variables [fst] to [snd] simultaneously,
    by a structural rebuild when the map preserves the order of [f]'s
    support and by {!subst} otherwise. *)
