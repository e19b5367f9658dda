(** Reference implementation: the paper's Algorithm 1 executed literally on
    explicit automata with the {!Ops} operators and the library's
    {!Fsa.Ops} —

    {v
    X := Complete(S); Determinize; Complement; Support(i,v,u,o);
    X := Product(Complete(F), X); Support(u,v);
    X := Determinize; Complete; Complement
    v}

    (PrefixClose and Progressive are applied by {!Csf.csf_sweep}.)
    Exponential in the network sizes; used to cross-validate the symbolic
    flows on small instances and for the deferred-completion ablation
    (Appendix, Theorem 1 / Corollary 1). *)

val solve : ?complete_f:bool -> Equation.Problem.t -> Fsa.Automaton.t
(** Most general prefix-closed solution over the [(u,v)] alphabet.
    [complete_f] (default [true]) runs line 5's [Complete(F)]; with
    [false], completion of [F] is skipped — by Corollary 1 the language is
    unchanged, which the test suite asserts. *)
