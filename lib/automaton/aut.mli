(** A textual exchange format for symbolic automata, modeled on the format
    of the BALM/MVSIS tools the paper was implemented in. Write-only: the
    CSF is written for those tools, and nothing here reads it back. The
    module makes the text; writing the file is the caller's.

    {v
    .aut <name>
    .alphabet <var> <var> ...        # one boolean variable per column
    .states <name> <name> ...
    .initial <state>
    .accepting <state> ...
    .trans
    <cube> <src> <dst>               # cube over the alphabet, 0/1/-
    ...
    .end
    v}

    Guards are printed as irredundant covers; parallel rows between the same
    states denote the union of their cubes. *)

val to_string : ?name:string -> Automaton.t -> string
