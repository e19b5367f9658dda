(** Partitioned symbolic representation of a sequential network: the
    per-latch next-state functions [{T_k(i, cs)}] and per-output functions
    [{O_j(i, cs)}] as BDDs — the paper's central data structure. The
    monolithic relations are deliberately *not* built here. *)

type t = {
  man : Bdd.Manager.t;
  net : Netlist.t;
  input_vars : int list;      (** one BDD variable per PI, in PI order *)
  state_vars : int list;      (** current-state variable per latch *)
  next_state_vars : int list; (** next-state variable per latch *)
  next_fns : int list;        (** [T_k(i,cs)] per latch, in latch order *)
  output_fns : (string * int) list;  (** [O_j(i,cs)] per PO *)
  init_cube : int;            (** characteristic cube of the initial state *)
}

val build :
  Bdd.Manager.t ->
  input_vars:int list ->
  state_vars:int list ->
  next_state_vars:int list ->
  Netlist.t ->
  t
(** Build the partitioned representation using caller-chosen variables (the
    equation solver shares one manager across [F] and [S], so it controls
    the global order). Lengths must match the network's PI/latch counts. *)

val of_netlist : Bdd.Manager.t -> Netlist.t -> t
(** [build] over fresh variables: the inputs' first, then each latch's
    [cs] and [ns] variables adjacent in the order — the standard good order
    for image computation. *)

val output_fn : t -> string -> int
(** The BDD of one named primary output. Raises [Not_found]. *)

val transition_parts : t -> (int * int) list
(** [(ns_var, T_k)] pairs: the partition [{T_k(i,cs,ns_k) = ns_k ↔ T_k}]
    is formed by the caller when relations (not functions) are needed. *)

val ns_to_cs : t -> (int * int) list
