(** DFA minimization by partition refinement (Moore's algorithm lifted to
    symbolic guards). Input must be deterministic and complete; the result is
    the unique minimal language-equivalent DFA (up to state naming). *)

val minimize : Automaton.t -> Automaton.t

val refine :
  Bdd.Manager.t ->
  seed:int array ->
  (int * int) list array ->
  int array * int array * (int * int) list array
(** [refine man ~seed succ] is the coarsest partition of the states
    [0 .. n-1] that refines [seed] (states with equal labels start in one
    class) and in which all states of a class reach every class under the
    same guard, where [succ.(s)] lists the [(guard, successor)] pairs of
    [s] (Moore's refinement over symbolic guards). Returns
    [(class_of, rep, edges)]: the class of every state, classes numbered
    in order of their first state; that first state of every class; and
    every class's successors [(guard, class)], the guards into one class
    merged by disjunction, ordered by class. Runs frozen; the merged
    guards are unpinned, so the caller pins them or stays frozen. *)
