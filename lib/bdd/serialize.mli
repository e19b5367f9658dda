(** Textual serialization of shared BDDs.

    Format: a header [bdd <num-vars> <num-roots>], one line per variable
    [var <index> <name>], one line per node [node <id> <var> <low> <high>]
    in bottom-up order (ids are file-local; 0/1 denote the constants), and
    a final [roots <id> ...] line. *)

val dump : Manager.t -> int list -> string
(** Serialize a list of roots with shared structure. *)

val load :
  Manager.t -> ?import_names:bool -> ?var_map:(int -> int) -> string -> int list
(** Rebuild the roots in a manager. Variables are matched by index through
    [var_map] (default: identity); the manager must already have the target
    variables allocated — unless [import_names] is set, in which case the
    [var] lines allocate any missing variables in a fresh manager and
    restore their dumped names (applied before [var_map]). Raises [Failure]
    with a descriptive message on malformed input: unparsable integer
    fields, a node referencing an undefined id, a variable index out of
    range, an unrecognized line, or a missing [roots] line. *)
