(** The contrast implementation measured in the paper's Table 1: Algorithm 1
    executed on monolithic transition-output relations.

    [TO_F(i,v,u,o,cs1,ns1)] and [TO_S(i,o,cs2,ns2)] are built as single
    BDDs (the external outputs [o] get BDD variables here); [S] is completed
    with an explicit don't-care state bit, complemented by flipping
    acceptance to that bit, conjoined with [TO_F], and the external
    variables [i,o] are hidden by monolithic existential quantification.
    A traditional subset construction follows: the oracle's [relation]
    returns the image [P_ζ] and [Q_ζ = zero] (no early trimming), the
    engine completes each subset state to the accepting sink [DCA], and
    complementation is the subset states' acceptance.

    Blow-ups surface as {!Runtime.Exceeded} (CPU deadline) or
    {!Bdd.Manager.Node_limit_exceeded} (node budget) — the "CNC" entries.
    With [runtime], the relation building runs in the [Build] phase and the
    subset construction in the [Subset] phase, with partial progress
    recorded on the runtime. *)

val solve_arena : ?runtime:Runtime.t -> Problem.t -> Fsa.Automaton.t * int
(** The solution automaton and the number of subset states explored, as
    {!Partitioned.solve_arena} returns them. *)
