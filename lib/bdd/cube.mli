(** Enumeration of the cubes of a BDD. *)

type literal = int * bool
(** A literal is a variable paired with its polarity ([true] = positive). *)

val iter_cubes : Manager.t -> int -> (literal list -> unit) -> unit
(** [iter_cubes m f k] calls [k] on every path-cube of [f] (each cube is a
    sorted literal list; variables absent from a cube are don't-cares). The
    cubes are disjoint and their union is exactly [f]. *)

val cubes : Manager.t -> int -> literal list list
(** All path-cubes of [f], as a list. *)
