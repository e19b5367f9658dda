(** Image computation under partitioned transition relations —
    [Img(ns) = ∃ i,cs. T(i,cs,ns) ∧ ξ(cs)] from the paper's introduction.
    {!image} is the library's single dispatch on {!strategy}: the solver's
    oracles reach the quantification kernel through it, and {!forward}
    adds the renaming step that the fixpoints of {!Reach}, {!Equiv} and
    the §4 checks share. *)

type strategy =
  | Partitioned of Quantify.order
      (** and-exists sweep with early quantification *)

val image :
  Bdd.Manager.t -> strategy:strategy -> int list -> quantify:int list -> int
(** [image man ~strategy rels ~quantify] is [∃ quantify. ∧ rels]. For a
    forward image, [rels] is the state set followed by the relation parts,
    [quantify] is the inputs plus current-state variables, and the result
    ranges over next-state variables. The caller keeps [rels] alive for
    the duration of the call. *)

val forward :
  Bdd.Manager.t ->
  strategy:strategy ->
  parts:int list ->
  quantify:int list ->
  rename:(int * int) list ->
  int ->
  int
(** [forward man ~strategy ~parts ~quantify ~rename frontier] is the image
    of [frontier] under [parts], renamed back to current-state variables
    by the [rename] pairs (next-state → current-state). The image rides the
    operand stack while it is renamed, so a collection in between cannot
    sweep it; the caller keeps [frontier] and [parts] alive, and the result
    is not protected. Applied to all but [frontier], it builds the
    {!Bdd.Ops.renaming} once for every frontier that follows. *)
