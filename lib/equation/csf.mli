(** From the most general prefix-closed solution to the Complete Sequential
    Flexibility: the largest prefix-closed, input-progressive sub-automaton
    (paper §2).

    The extraction runs directly on the solution automaton the engine
    returns, as a worklist algorithm ({!prune}): the reverse-arc index is
    built once, every state is examined once, and a deletion re-examines
    only the deleted state's predecessors, where the explicit PrefixClose
    followed by iterated Progressive sweeps cost O(passes × states × arcs).
    The alive states reachable through alive states are cut out with one
    [Fsa.Ops.restrict]; no guard is validated or pinned again. Deletions are
    counted on the [csf.worklist_deletions] observability counter. *)

val prune :
  ?tick:(unit -> unit) ->
  Fsa.Automaton.t ->
  bool array ->
  (int -> int -> bool) ->
  unit
(** [prune x alive keep] shrinks [alive] (indexed by [x]'s states) to the
    greatest set of states [s] for which [keep s d] holds, where [d] is the
    disjunction of [s]'s guards into states still alive. It is the one
    greatest-fixpoint mechanism of the solver: {!of_arena} keeps the states
    where [∃out. d = 1], and {!Extract} the Moore-viable states, where
    [∀u. d ≠ 0].

    Every state alive on entry is examined once, in ascending order, and
    a deletion re-examines only the deleted state's predecessors, through
    a reverse-arc index built once; so when [prune] returns, the last [d]
    [keep] received for each surviving state is over the final alive set.
    [keep] is called on alive states only and may record [d]. The caller
    runs [prune] inside {!Bdd.Manager.with_frozen}: [d] is an unpinned id.
    [tick] runs before each examination (default: nothing). *)

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
