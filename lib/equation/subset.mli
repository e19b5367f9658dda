(** The successor-splitting step shared by both determinization flows: given
    the relation [P(a, ns)] from one subset state (with [a] the alphabet
    variables), enumerate the distinct successor subset states and the guard
    under which each is reached. *)

val memo_splitter :
  ?runtime:Runtime.t ->
  Bdd.Manager.t ->
  roots:Bdd.Manager.Roots.set ->
  alphabet:int list ->
  ns_cube:int ->
  domain:int ->
  int ->
  (int * int) list
(** [memo_splitter man ~roots ~alphabet ~ns_cube] is a function
    [fun ~domain p -> arcs] that splits the relation [p]: the arcs are
    [(guard(a), successor(ns))] pairs with pairwise-disjoint non-zero
    guards whose union is [domain], which must be [∃ns. P] (the caller
    has it already and keeps it live). Each successor is the cofactor of
    [P] at any symbol of its guard; by construction all symbols of a
    guard share that cofactor. The enumeration picks each class's
    symbol with {!Bdd.Ops.pick_cube} and runs with garbage collection
    frozen. With [runtime], the runtime ticks once per enumerated
    successor class, so a state with very many classes still honours
    the budget.

    The result is memoized on the canonical BDD id of [p] for one
    construction: distinct subset states frequently share a successor
    relation, and a memo hit returns the first call's arcs without
    enumerating. Each memoized [p] and every component of its arcs are
    added to [roots], so they stay live while the manager collects.

    Raises [Invalid_argument] with a description of the offending symbol
    when the inputs break the contract — when [alphabet] does not cover
    the support of [∃ns. P], or when an alphabet variable also occurs in
    [ns_cube] (so no symbol has a well-defined successor class). *)
