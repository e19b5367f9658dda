(** The operators of the paper's generic Algorithm 1 that the library
    folds into one partitioned subset construction ({!Equation.Engine.run}
    and {!Equation.Csf.of_arena}): Complement, Product, PrefixClose,
    Progressive, Determinize and Support, on explicit automata that may be
    nondeterministic. {!Generic.solve} and {!Csf.csf_sweep} run them
    literally, and {!Language} determinizes with them before it compares
    languages; the rest of Algorithm 1 (Complete, and the trim after it)
    is the library's {!Fsa.Ops}. *)

val complement : Fsa.Automaton.t -> Fsa.Automaton.t
(** Flip acceptance. Requires a deterministic, complete automaton
    ([Invalid_argument] otherwise). *)

val product : Fsa.Automaton.t -> Fsa.Automaton.t -> Fsa.Automaton.t
(** Synchronous product over the union of the alphabets; accepting iff both
    components accept. Both automata must share one BDD manager. *)

val prefix_close : Fsa.Automaton.t -> Fsa.Automaton.t
(** Largest prefix-closed sub-language: delete non-accepting states (and all
    edges touching them). Returns the empty automaton when the initial state
    is non-accepting. *)

val progressive :
  ?on_pass:(unit -> unit) ->
  Fsa.Automaton.t ->
  inputs:int list ->
  Fsa.Automaton.t
(** Largest sub-automaton in which every state is input-progressive: for
    every assignment of [inputs] some outgoing transition (for some
    assignment of the remaining alphabet variables) exists. States violating
    the condition are removed iteratively (the paper's [Progressive(X, u)]).
    Returns the empty automaton when the initial state is removed.
    [on_pass] runs at the start of every deletion sweep — callers use it to
    enforce a resource budget on the iteration. *)

val determinize : Fsa.Automaton.t -> Fsa.Automaton.t
(** Subset construction. The result is deterministic, has no zero guards and
    is defined exactly on the symbols where some run existed (it is not
    completed). *)

val change_support : Fsa.Automaton.t -> int list -> Fsa.Automaton.t
(** The paper's [Support(A, vars)]: hide the alphabet variables not listed
    (restriction ⇓: each is existentially quantified out of every guard,
    typically introducing nondeterminism) and expand by the listed
    variables not present (⇑: guards are unchanged, so each edge admits
    both values of each new variable). *)
