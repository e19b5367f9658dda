(** Partitioned transition relations [{T_k(i, cs, ns_k) = ns_k ↔ T_k(i,cs)}]
    and clustering (conjoining related parts up to a size threshold, the
    usual middle ground between fully-partitioned and monolithic). A
    partition is a plain list of relation conjuncts. *)

val of_functions : Bdd.Manager.t -> (int * int) list -> int list
(** [(var, fn)] pairs become parts [var ↔ fn]. Used both for next-state
    functions (var = a next-state variable) and output/communication
    functions (var = an output variable, as in the paper's [u_j ↔ U_j]). *)

val cluster_affinity : Bdd.Manager.t -> threshold:int -> int list -> int list
(** Affinity-based clustering: repeatedly conjoin the pair of parts with the
    highest support-overlap (Jaccard) affinity, accepting a merge only while
    the cluster BDD stays under [threshold] nodes; rejected pairs are never
    retried. Order-independent: parts that track the same variables merge
    even when they are not adjacent in the list.
    [threshold <= 1] keeps the partition as is. *)

val monolithic : Bdd.Manager.t -> int list -> int
(** The full conjunction of the parts (the representation the paper
    avoids). *)
