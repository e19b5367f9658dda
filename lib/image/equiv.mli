(** Sequential equivalence checking of two networks with identical
    interfaces: symbolic product-machine reachability with an
    output-equality invariant, producing a shortest distinguishing input
    sequence on failure. *)

type result =
  | Equivalent
  | Different of bool array list
      (** a distinguishing input sequence, one input vector per cycle in
          the first network's PI order; feeding it to both networks makes
          their outputs differ at the last cycle *)

val check : Network.Netlist.t -> Network.Netlist.t -> result
(** Exact check: a {!Reach.fixpoint} over the product machine whose [bad]
    states are those where some input makes the outputs differ. The
    networks must have the same input and output names (matching is by
    name, order-independent); raises [Invalid_argument] otherwise. *)
