(** The automaton operations of the paper's generic Algorithm 1: Complete,
    Determinize, Complement, Support (expansion/restriction), Product,
    PrefixClose and Progressive, plus trimming. All operations are
    language-level: they may renumber states. *)

val restrict : Automaton.t -> bool array -> Automaton.t
(** [restrict t keep] is the sub-automaton on the states [s] with
    [keep.(s)], renumbered in their original relative order, with each
    kept state's edges to kept states in their original order. The guards
    are shared with [t], not pinned again. The initial state must be
    kept. *)

val trim : Automaton.t -> Automaton.t
(** Drop unreachable states; the rest keep their relative order (as
    {!restrict}). *)

val complete : Automaton.t -> Automaton.t
(** Add a non-accepting "don't care" sink [DC] with a universal self-loop and
    redirect every undefined symbol of every state to it (the identity when
    the automaton is already complete). *)

val complement : Automaton.t -> Automaton.t
(** Flip acceptance. Requires a deterministic, complete automaton
    ([Invalid_argument] otherwise). *)

val determinize : Automaton.t -> Automaton.t
(** Subset construction. The result is deterministic, has no zero guards and
    is defined exactly on the symbols where some run existed (it is not
    completed). *)

val product : Automaton.t -> Automaton.t -> Automaton.t
(** Synchronous product over the union of the alphabets; accepting iff both
    components accept. Both automata must share one BDD manager. *)

val hide : Automaton.t -> int list -> Automaton.t
(** Existentially quantify the listed variables out of every guard and drop
    them from the alphabet (the paper's restriction ⇓; typically introduces
    nondeterminism). *)

val expand : Automaton.t -> int list -> Automaton.t
(** Add the listed variables to the alphabet; guards are unchanged, so each
    edge now admits both values of each new variable (the paper's ⇑). *)

val change_support : Automaton.t -> int list -> Automaton.t
(** The paper's [Support(A, vars)]: hide the alphabet variables not listed
    and expand by the listed variables not present. *)

val prefix_close : Automaton.t -> Automaton.t
(** Largest prefix-closed sub-language: delete non-accepting states (and all
    edges touching them). Returns the empty automaton when the initial state
    is non-accepting. *)

val progressive :
  ?on_pass:(unit -> unit) -> Automaton.t -> inputs:int list -> Automaton.t
(** Largest sub-automaton in which every state is input-progressive: for
    every assignment of [inputs] some outgoing transition (for some
    assignment of the remaining alphabet variables) exists. States violating
    the condition are removed iteratively (the paper's [Progressive(X, u)]).
    Returns the empty automaton when the initial state is removed.
    [on_pass] runs at the start of every deletion sweep — callers use it to
    enforce a resource budget on the iteration. *)

val normalize_edges : Automaton.t -> Automaton.t
(** Merge parallel edges to the same destination into one guard. *)
