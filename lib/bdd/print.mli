(** Pretty-printing and DOT export of BDDs. *)

val pp : Manager.t -> Format.formatter -> int -> unit
(** Print [f] as a sum of cubes using the manager's variable names
    (["true"]/["false"] for constants). Intended for small functions. *)

val to_string : Manager.t -> int -> string

val to_dot : Manager.t -> ?name:string -> int list -> string
(** DOT graph of (the shared structure of) a list of roots. *)
