(** Language-level queries: exact equivalence and containment, with a
    witness word when containment fails. A word is a list of symbols; a
    symbol is the BDD cube of a total assignment of the alphabet. *)

val equivalent : Automaton.t -> Automaton.t -> bool
(** Exact language equality (alphabets are first unified by expansion; both
    automata are determinized and completed internally). *)

val subset : Automaton.t -> Automaton.t -> bool
(** [subset a b] is [L(a) ⊆ L(b)] (exact). *)

val counterexample : Automaton.t -> Automaton.t -> int list option
(** A word accepted by [a] but not by [b], if any. *)
