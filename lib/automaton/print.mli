(** Pretty-printing and DOT export of automata. *)

val pp : Format.formatter -> Automaton.t -> unit
(** Multi-line listing: states (initial marked [->], accepting [*]) and
    edges with guards printed as sums of cubes. *)

val to_dot : ?name:string -> Automaton.t -> string
(** GraphViz export; accepting states are double circles, the DC-style sink
    conventions of the paper are preserved via state names. *)

val summary : Automaton.t -> string
(** One line: state/edge counts, deterministic/complete flags. *)
