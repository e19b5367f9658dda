(** Irredundant sum-of-products covers from BDDs (the Minato–Morreale ISOP
    algorithm). Used to print functions compactly and to emit the covers
    of BLIF, KISS2 and [.aut] files without enumerating truth tables. *)

val isop : Manager.t -> int -> int -> Cube.literal list list
(** [isop m lower upper] computes an irredundant cube cover [f] with
    [lower ⊆ f ⊆ upper]. Requires [lower ⊆ upper] (raises
    [Invalid_argument] otherwise). The common call is [isop m f f]. *)

val cover : Manager.t -> int -> Cube.literal list list
(** [cover m f] = [isop m f f]: an irredundant SOP for exactly [f]. *)

val cover_rows : Manager.t -> columns:int list -> int -> string list
(** [cover_rows m ~columns f] prints [cover m f] one cube per row, as
    BLIF, KISS2 and [.aut] write a cover: row position [k] holds [1] or
    [0] when the cube has a positive or negative literal of the [k]-th
    variable of [columns], and [-] when it leaves that variable out. The
    constant one prints one all-[-] row, the constant zero no row. Every
    variable of [f]'s support must be in [columns]. *)

val cover_bdd : Manager.t -> Cube.literal list list -> int
(** Rebuild the BDD of a cover (for checking). *)
