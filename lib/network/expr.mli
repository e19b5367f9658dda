(** Boolean expressions used as the local functions of logic nodes.

    Variables are indices into a node's fanin array; an expression is always
    interpreted relative to an environment supplying those fanin values. *)

type t =
  | Var of int
  | Const of bool
  | Not of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Ite of t * t * t

val eval : (int -> bool) -> t -> bool
(** Evaluate under an environment for the fanin variables. *)

val to_bdd : Bdd.Manager.t -> (int -> int) -> t -> int
(** [to_bdd m env e] builds the BDD of [e], with [env k] the BDD of fanin
    [k]. *)

val of_cover : ncols:int -> (string * bool) list -> t
(** Build an expression from a BLIF-style cover: each row is a pattern of
    ['0'|'1'|'-'] over [ncols] fanins paired with the output value for that
    row. All rows must share the same output value (standard BLIF); the
    function is the OR of the rows if that value is [true] and the complement
    of the OR otherwise. An empty cover is the constant [false]. *)

val conj : t list -> t
val disj : t list -> t
