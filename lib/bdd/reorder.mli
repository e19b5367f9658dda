(** Static variable reordering by migration.

    The manager's order is fixed at variable-creation time (variable index =
    level), so reordering is done by rebuilding functions in a *fresh*
    manager whose variables were created in the new order. This is the
    rebuild-based analog of dynamic reordering: run it between phases when
    the current order has degraded. *)

val reorder :
  Manager.t ->
  hyperedges:int list list ->
  int list ->
  Manager.t * int list * (int -> int)
(** [reorder man ~hyperedges roots] creates a fresh manager ordered by a
    FORCE-style heuristic, migrates the roots (rebuilds them there,
    sending each variable to its new level), and returns
    [(new_manager, new_roots, var_map)]. Variable names are preserved.

    FORCE iteratively places each variable at the centre of gravity of the
    hyperedges (variable sets) containing it. The caller supplies them from
    its structure, e.g. the per-part supports of a partitioned relation: a
    single conjoined function carries no locality information. *)

