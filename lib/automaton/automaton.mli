(** Finite automata over symbolic alphabets.

    A symbol of the alphabet is a total assignment to a fixed set of BDD
    variables; transition guards are BDDs over those variables, so one edge
    compactly encodes a set of symbols. A word is accepted when the run it
    induces ends in an accepting state (hence the empty word is accepted iff
    the initial state is accepting). Automata may be nondeterministic and/or
    incomplete. *)

type state = int

type t = {
  man : Bdd.Manager.t;
  alphabet : int list;  (** BDD variables encoding a symbol, sorted *)
  initial : state;
  accepting : bool array;
  edges : (int * state) list array;
      (** outgoing edges [(guard, destination)] per state *)
  names : string array;  (** printable state labels *)
}

val make :
  Bdd.Manager.t ->
  alphabet:int list ->
  initial:state ->
  accepting:bool array ->
  edges:(int * state) list array ->
  ?names:string array ->
  unit ->
  t
(** Validates shape: array lengths agree, destinations in range, non-zero
    guards, guard supports inside the alphabet. *)

val num_states : t -> int
val state_name : t -> state -> string

val pin : t -> t
(** Protect every transition guard against garbage collection (see
    {!Bdd.Manager.protect}) and return the automaton. {!make} pins
    automatically; operations that assemble records directly must pin
    before exposing the result. Pins are never released — automata are
    assumed to live as long as their manager. *)

val defined_guard : t -> state -> int
(** Disjunction of the outgoing guards of a state: the set of symbols on
    which the state's behaviour is defined. *)

val is_deterministic : t -> bool
(** No state has two outgoing edges with intersecting guards. *)

val is_complete : t -> bool
(** Every state's [defined_guard] is the constant true. *)

val empty : Bdd.Manager.t -> alphabet:int list -> t
(** The automaton with a single non-accepting state and no transitions: its
    language is empty. Used as the "no solution" result. *)

val is_empty_language : t -> bool
(** No reachable accepting state. *)
