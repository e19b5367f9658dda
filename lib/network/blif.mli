(** Reader and writer for the Berkeley Logic Interchange Format (BLIF)
    subset used by sequential benchmarks: [.model], [.inputs], [.outputs],
    [.latch] (with optional type/control and reset value), [.names] with
    single-output covers, and [.end]. It maps text to netlists and back;
    reading and writing files is the caller's. *)

exception Parse_error of int * string
(** Line number and message. *)

val parse_string : string -> Netlist.t
(** Parse one model from BLIF text. *)

val to_string : Netlist.t -> string
(** Emit a network as BLIF. Node functions are flattened to irredundant
    sum-of-cubes covers (via {!Bdd.Isop}). *)
