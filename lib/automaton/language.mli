(** Language-level queries on deterministic automata: exact equivalence
    and containment, with a witness word when containment fails. A word is
    a list of symbols; a symbol is the BDD cube of a total assignment of
    the alphabet.

    Both automata must share one manager, have the same alphabet (as a
    set) and be deterministic; each query raises [Invalid_argument]
    otherwise. Both are completed internally. Every automaton the solver
    produces (a CSF, an extracted machine, a latch bank) qualifies; the
    tests' reference code runs its own subset construction on a
    nondeterministic automaton before it compares one. *)

val equivalent : Automaton.t -> Automaton.t -> bool
(** Exact language equality. *)

val subset : Automaton.t -> Automaton.t -> bool
(** [subset a b] is [L(a) ⊆ L(b)] (exact). *)

val counterexample : Automaton.t -> Automaton.t -> int list option
(** A word accepted by [a] but not by [b], if any. *)
