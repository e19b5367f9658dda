(** From the most general prefix-closed solution to the Complete Sequential
    Flexibility: the largest prefix-closed, input-progressive sub-automaton
    (paper §2).

    The extraction runs directly on the solution automaton the engine
    returns, as a worklist algorithm: the reverse-arc index is built once,
    every state is examined once, and a deletion re-examines only the
    deleted state's predecessors, where the explicit PrefixClose followed
    by iterated Progressive sweeps cost O(passes × states × arcs). The
    alive states reachable through alive states are cut out with one
    [Fsa.Ops.restrict]; no guard is validated or pinned again. Deletions are
    counted on the [csf.worklist_deletions] observability counter. *)

val of_arena :
  ?runtime:Runtime.t -> Problem.t -> Fsa.Automaton.t -> Fsa.Automaton.t * int
(** [of_arena p x] extracts the CSF from the solution [x] that
    {!Engine.run} built (through [Partitioned.solve_arena] or
    [Monolithic.solve_arena]) and returns it with the number of state
    deletions the worklist performed. [x]'s guards must be protected, as
    the engine's are: the CSF shares them. The surviving states keep [x]'s
    relative order and per-state arc order, so the result is
    state-for-state identical to the sweep-based composition (the tests'
    reference in [test/reference]). With [runtime], the extraction runs in
    the [Csf] phase and honours the time/node budget (one tick per
    worklist examination). *)

val num_states : Fsa.Automaton.t -> int
(** The "States(X)" column of Table 1. *)
