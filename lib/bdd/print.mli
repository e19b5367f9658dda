(** Pretty-printing of BDDs. *)

val pp : Manager.t -> Format.formatter -> int -> unit
(** Print [f] as a sum of cubes using the manager's variable names
    (["true"]/["false"] for constants). Intended for small functions. *)

val to_string : Manager.t -> int -> string
