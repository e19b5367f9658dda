(** The image computation the partitioned kernel avoids, kept as the
    tests' reference for {!Img.Quantify.and_exists_list} and as the bench
    ablations' contrast image. *)

val monolithic_and_exists :
  Bdd.Manager.t -> int list -> quantify:int list -> int
(** [∃ quantify. ∧ rels], conjoining everything first and quantifying
    after. Counts on the same [image.conjunctions] and
    [image.peak_intermediate] metrics as the partitioned kernel. *)
