(** Image computation under partitioned transition relations —
    [Img(ns) = ∃ i,cs. T(i,cs,ns) ∧ ξ(cs)] from the paper's introduction.
    {!image} is the library's single dispatch on {!strategy}: the solver's
    oracles, the §4 checks and {!Reach} all reach the quantification
    kernels through it. *)

type strategy =
  | Monolithic      (** build the full relation first, then quantify *)
  | Partitioned of Quantify.order
      (** and-exists sweep with early quantification *)

val image :
  Bdd.Manager.t -> strategy:strategy -> int list -> quantify:int list -> int
(** [image man ~strategy rels ~quantify] is [∃ quantify. ∧ rels]. For a
    forward image, [rels] is the state set followed by the relation parts,
    [quantify] is the inputs plus current-state variables, and the result
    ranges over next-state variables; the caller renames [ns → cs]
    afterwards. The caller keeps [rels] alive for the duration of the
    call. *)

val describe : strategy -> string
(** ["mono-image"], ["given"] or ["greedy"] — used in method labels and
    attempt reports. *)
