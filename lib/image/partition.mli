(** Partitioned transition relations [{T_k(i, cs, ns_k) = ns_k ↔ T_k(i,cs)}]
    and clustering (conjoining related parts up to a size threshold, the
    usual middle ground between fully-partitioned and monolithic). *)

type t = {
  man : Bdd.Manager.t;
  parts : int list;  (** relation conjuncts *)
}

val of_functions : Bdd.Manager.t -> (int * int) list -> t
(** [(var, fn)] pairs become parts [var ↔ fn]. Used both for next-state
    functions (var = a next-state variable) and output/communication
    functions (var = an output variable, as in the paper's [u_j ↔ U_j]). *)

val of_relations : Bdd.Manager.t -> int list -> t

val cluster_affinity : t -> threshold:int -> t
(** Affinity-based clustering: repeatedly conjoin the pair of parts with the
    highest support-overlap (Jaccard) affinity, accepting a merge only while
    the cluster BDD stays under [threshold] nodes; rejected pairs are never
    retried. Order-independent: parts that track the same variables merge
    even when they are not adjacent in the list.
    [threshold <= 1] keeps the partition as is. *)

(** How to pre-cluster a partition before image computations. *)
type clustering =
  | No_clustering  (** fully partitioned, one conjunct per latch/output *)
  | Affinity of int  (** {!cluster_affinity} under the given node threshold *)

val apply : t -> clustering -> t

val describe_clustering : clustering -> string
(** ["unclustered"] or ["affinity:N"] — used in traces and
    attempt reports. *)

val monolithic : t -> int
(** The full conjunction (the representation the paper avoids). *)

val size : t -> int
(** Shared node count of all parts. *)
