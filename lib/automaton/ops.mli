(** The automaton operations a solve, a command or an example runs:
    restriction and trimming, Complete and edge normalization. All
    operations are language-level: they may renumber states. The paper's
    generic Algorithm 1 (Determinize, Support, Complement, Product,
    PrefixClose, Progressive) is folded into the partitioned subset
    construction ([Equation.Engine.run] and [Equation.Csf.of_arena]); the
    explicit operators live with the tests' reference code. *)

val restrict : Automaton.t -> bool array -> Automaton.t
(** [restrict t keep] is the sub-automaton on the states [s] with
    [keep.(s)], renumbered in their original relative order, with each
    kept state's edges to kept states in their original order. The guards
    are shared with [t], not pinned again. Raises [Invalid_argument]
    when the initial state is not kept. *)

val trim : Automaton.t -> Automaton.t
(** Drop unreachable states; the rest keep their relative order (as
    {!restrict}). *)

val complete : Automaton.t -> Automaton.t
(** Add a non-accepting "don't care" sink [DC] with a universal self-loop and
    redirect every undefined symbol of every state to it (the identity when
    the automaton is already complete). *)

val normalize_edges : Automaton.t -> Automaton.t
(** Merge parallel edges to the same destination into one guard. *)
