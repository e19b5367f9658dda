(** A language-equation instance [F • X ⊆ S] in the paper's Figure-1
    topology, with both components given as multi-level sequential networks
    sharing one BDD manager and a coordinated variable order.

    Variable roles (paper notation):
    - [i]: external inputs (PIs of [S]; also PIs of [F])
    - [o]: external outputs (POs of [S]; also POs of [F])
    - [v]: outputs of the unknown [X] = extra PIs of [F]
    - [u]: inputs of the unknown [X] = extra POs of [F]

    The alphabet of the solution automaton is [(u, v)]. *)

type t = {
  man : Bdd.Manager.t;
  i_vars : int list;  (** BDD variable per external input *)
  v_vars : int list;
  u_vars : int list;
  o_vars : int list;  (** used only by the monolithic flow *)
  dc_var : int;       (** spare state bit: S's completion flag (monolithic) *)
  dc_next_var : int;
  f_sym : Network.Symbolic.t;
  s_sym : Network.Symbolic.t;
  f_out_o : int list;  (** O^F_j(i,v,cs1), aligned with [S]'s PO order *)
  f_out_u : int list;  (** U_j(i,v,cs1), aligned with [u_vars] *)
  s_out_o : int list;  (** O^S_j(i,cs2), in [S]'s PO order *)
  u_names : string list;
  v_names : string list;
  observed_i : int list;
      (** external inputs the unknown component can observe directly
          (footnote 6's generalized topology; empty in the classic Figure-1
          setup). These join the solution's alphabet and are not hidden. *)
}

val make :
  ?man:Bdd.Manager.t ->
  ?affinities:(string * string * string) list ->
  ?observed_inputs:string list ->
  f:Network.Netlist.t ->
  s:Network.Netlist.t ->
  u_names:string list ->
  v_names:string list ->
  unit ->
  t
(** Wiring is by name: [f]'s PIs must be exactly [s]'s PIs plus [v_names];
    [f]'s POs must be exactly [s]'s POs plus [u_names]. Latches of [f] that
    share a name with a latch of [s] get adjacent (interleaved) BDD
    variables — for latch-split instances, where [F]'s latches mirror a
    subset of [S]'s, this is the good order.

    [affinities] is a list of [(v_name, u_name, s_latch_name)] triples
    declaring that the alphabet pair tracks that latch (true for every
    split-out latch); their variables are allocated adjacent to the latch's
    state variables, which is essential to keep [P_ζ(u,v,ns)] small.

    Raises [Invalid_argument] on a wiring mismatch. *)

val state_vars : t -> int list
(** [F]'s then [S]'s current-state variables. *)

val next_state_vars : t -> int list

val ns_to_cs : t -> (int * int) list

val conformance_parts : t -> int list
(** Per-output conformance [c_j(i,v,cs) = O^F_j ↔ O^S_j]; their conjunction
    is the paper's [C(i,v,cs)]. *)

val u_relation_parts : t -> int list
(** [u_j ↔ U_j(i,v,cs1)] per communication output of [F]. *)

val transition_parts : t -> int list
(** Union of [F]'s and [S]'s next-state partitions
    [{ns_k ↔ T_k}] — the partitioned product of the paper. *)

val initial_cube : t -> int
(** [ζ₀(cs)]: product of both networks' initial-state cubes. *)

val alphabet : t -> int list
(** The solution automaton's alphabet: [u ∪ v ∪ observed_i], sorted. *)

val hidden_inputs : t -> int list
(** The external inputs quantified away during solving: [i ∖ observed_i]. *)

val x_input_vars : t -> int list
(** The unknown component's inputs: [u ∪ observed_i] (its outputs are
    [v]). This is the input set for the progressive computation and for
    extracted machines. *)

val reorder : t -> t
(** Rebuild the instance in a {e fresh} manager whose variable order comes
    from the FORCE algorithm applied to the relation-part supports (the
    rebuild-based analog of dynamic reordering). Only the final partition
    BDDs are migrated, so the new manager starts from a compact node count
    and a fresh allocation budget — the degradation ladder's reorder-retry
    rung after a node-limit blow-up. The old manager's node limit and allocation hook
    must be lifted before calling (see {!Runtime.detach}): forming the
    relation parts can allocate a few nodes in the old manager. *)
