(** Language queries on explicit automata, for tests: the successors
    under one symbol, acceptance of a word, bounded enumeration of the
    accepted words, and exact comparison of automata that may be
    nondeterministic or over different alphabets. A word is a list of
    symbols; a symbol is the BDD cube of a total assignment of the
    alphabet. The library's {!Fsa.Language} compares deterministic
    automata over one alphabet only; the comparisons here unify the
    alphabets and determinize with {!Ops} first, then call it. *)

val successors : Fsa.Automaton.t -> Fsa.Automaton.state -> int -> Fsa.Automaton.state list
(** [successors t s symbol_cube] — destinations whose guard admits the given
    symbol (a full assignment cube of the alphabet). *)

val accepts : Fsa.Automaton.t -> int list -> bool
(** Nondeterministic acceptance of a word. *)

val symbols : Fsa.Automaton.t -> int list
(** All [2^|alphabet|] symbol cubes. Exponential. *)

val accepted_words : Fsa.Automaton.t -> max_len:int -> int list list
(** All accepted words of length ≤ [max_len], sorted; exponential. *)

val equivalent : Fsa.Automaton.t -> Fsa.Automaton.t -> bool
(** Exact language equality: both automata are expanded to the union of
    their alphabets ({!Ops.change_support}) and determinized, then
    compared by {!Fsa.Language.equivalent}. *)

val subset : Fsa.Automaton.t -> Fsa.Automaton.t -> bool
(** [subset a b] is [L(a) ⊆ L(b)], prepared as {!equivalent}. *)

val counterexample : Fsa.Automaton.t -> Fsa.Automaton.t -> int list option
(** A word accepted by [a] but not by [b], if any, prepared as
    {!equivalent}; its symbols are over the union of the alphabets. *)
