(** Word-level queries on explicit automata, for tests: the successors
    under one symbol, acceptance of a word and bounded enumeration of the
    accepted words. A word is a list of symbols; a symbol is the BDD cube
    of a total assignment of the alphabet. Exact language comparison is
    the library's {!Fsa.Language}. *)

val successors : Fsa.Automaton.t -> Fsa.Automaton.state -> int -> Fsa.Automaton.state list
(** [successors t s symbol_cube] — destinations whose guard admits the given
    symbol (a full assignment cube of the alphabet). *)

val accepts : Fsa.Automaton.t -> int list -> bool
(** Nondeterministic acceptance of a word. *)

val symbols : Fsa.Automaton.t -> int list
(** All [2^|alphabet|] symbol cubes. Exponential. *)

val accepted_words : Fsa.Automaton.t -> max_len:int -> int list list
(** All accepted words of length ≤ [max_len], sorted; exponential. *)
