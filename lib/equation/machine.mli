(** Explicit Moore machines over the unknown component's interface: inputs
    [u], outputs [v] that depend on the state only. Moore-ness matters: in
    the latch-split topology [u] is computed combinationally from [v], so a
    Mealy implementation of [X] would close a combinational loop through
    [F] (the paper's footnote 5 excludes such implementations — the
    particular solution, a latch bank, is itself Moore). *)

type t = {
  man : Bdd.Manager.t;
  u_vars : int list;
  v_vars : int list;
  initial : int;
  outputs : int array;   (** per state: a full assignment cube over [v] *)
  next : (int * int) list array;
      (** per state: [(u_guard, successor)] with disjoint guards covering
          the whole [u] space *)
}

val make :
  Bdd.Manager.t ->
  u_vars:int list ->
  v_vars:int list ->
  initial:int ->
  outputs:int array ->
  next:(int * int) list array ->
  t
(** Validates: output cubes are total assignments of [v]; per-state [u]
    guards are non-zero, pairwise disjoint and cover the [u] space. *)

val num_states : t -> int

val to_automaton : t -> Fsa.Automaton.t
(** The machine's behaviour as an automaton over the [(u, v)] alphabet (all
    states accepting, prefix-closed) — used to check containment in a
    CSF. *)

val step : t -> int -> (int -> bool) -> int
(** [step m s u_assign] is the successor state under an input assignment. *)

val output_bits : t -> int -> bool list
(** The state's output, as booleans in [v_vars] order. *)

val minimize : t -> t
(** Classic Moore minimization: merge states with equal outputs and
    compatible successor structure ({!Fsa.Minimize.refine} seeded by the
    output cubes). The result
    computes the same input/output function with the fewest states. *)

val to_netlist : t -> Network.Netlist.t
(** Synthesize the machine as a circuit named [extracted_x]: binary state
    encoding (state [k] gets code [k]), inputs named after [u_vars],
    outputs after [v_vars]. The result can be placed back into the hole
    left by latch splitting. *)
