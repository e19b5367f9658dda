(** Irredundant sum-of-products covers from BDDs (the Minato–Morreale ISOP
    algorithm). Used to print functions compactly and to emit the covers
    of BLIF, KISS2 and [.aut] files without enumerating truth tables. *)

val cover_rows : Manager.t -> columns:int list -> int -> string list
(** [cover_rows m ~columns f] prints an irredundant sum-of-products cover
    of exactly [f], one cube per row, as BLIF, KISS2 and [.aut] write a
    cover: row position [k] holds [1] or [0] when the cube has a positive
    or negative literal of the [k]-th variable of [columns], and [-] when
    it leaves that variable out. The constant one prints one all-[-] row,
    the constant zero no row. Every variable of [f]'s support must be in
    [columns]. *)
