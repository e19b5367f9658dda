(** The automaton operations a solve, a command or an example runs:
    restriction and trimming, Complete, Determinize, the paper's Support
    (expansion/restriction of the alphabet) and edge normalization. All
    operations are language-level: they may renumber states. The rest of
    the paper's generic Algorithm 1 (Complement, Product, PrefixClose,
    Progressive) is folded into the partitioned subset construction
    ([Equation.Engine.run] and [Equation.Csf.of_arena]); the explicit
    operators live with the tests' reference code. *)

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

val determinize : Automaton.t -> Automaton.t
(** Subset construction. The result is deterministic, has no zero guards and
    is defined exactly on the symbols where some run existed (it is not
    completed). *)

val change_support : Automaton.t -> int list -> Automaton.t
(** The paper's [Support(A, vars)]: hide the alphabet variables not listed
    (restriction ⇓: each is existentially quantified out of every guard,
    typically introducing nondeterminism) and expand by the listed
    variables not present (⇑: guards are unchanged, so each edge admits
    both values of each new variable). *)

val normalize_edges : Automaton.t -> Automaton.t
(** Merge parallel edges to the same destination into one guard. *)
