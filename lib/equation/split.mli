(** Latch splitting (paper §4): the syntactic transformation that turns one
    sequential circuit [N] into a language-equation instance. The latches
    named in [x_latches] are pulled out of the circuit; the rest of the
    circuit becomes the fixed component [F], the pulled-out latch bank is a
    particular solution [X_P], and the original circuit is the
    specification [S].

    In [F]:
    - each split latch's output is replaced by a fresh primary input
      [v.<latch>] (the value [X] feeds back), and
    - each split latch's data input is exposed as a fresh primary output
      [u.<latch>] (the value [F] sends to [X]). *)

type t = {
  f : Network.Netlist.t;
  u_names : string list;  (** [u.<latch>] in split-latch order *)
  v_names : string list;  (** [v.<latch>] in split-latch order *)
  x_init : bool list;     (** initial values of the split latches *)
  x_latch_names : string list;
}

val split : Network.Netlist.t -> x_latches:string list -> t
(** Raises [Invalid_argument] when a named latch does not exist or when
    [x_latches] is empty (splitting zero latches is meaningless). Splitting
    every latch is allowed: F is then combinational. *)

val problem :
  ?man:Bdd.Manager.t ->
  ?observed_inputs:string list ->
  Network.Netlist.t ->
  x_latches:string list ->
  t * Problem.t
(** Split and build the equation instance with [S = N]. With
    [observed_inputs], the unknown component may additionally observe those
    primary inputs (footnote 6's generalized topology); the CSF can only
    grow with extra observation. *)

val particular_solution : Problem.t -> t -> Fsa.Automaton.t
(** The latch bank [X_P] as an explicit automaton over the [(u,v)] alphabet:
    states are the [2^k] valuations of the split latches, [v] echoes the
    current state and [u] drives the next state. Exponential in [k]; used
    for cross-validation on small instances (the symbolic containment check
    in {!Verify} does not build this). *)
