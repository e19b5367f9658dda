(** The paper's two validation checks for a computed CSF [X] (§4):

    (1) [X_P ⊆ X] — the particular solution (the split-out latch bank) is
        contained in the flexibility;
    (2) [F × X_P ≡ S] — plugging the latch bank back into [F] reproduces the
        specification exactly.

    Both checks are symbolic: the latch bank is never enumerated. Check (2)
    and the certification of an extracted machine
    ({!composition_with_machine}) are one product-machine check of
    [F × S × X]: the latch bank is the [X] whose state is [v] and whose
    next state is [u].

    Each check accepts an optional {!Runtime.t}: it then runs in the
    [Verify] phase under the runtime's time/node budget (one tick per
    explored state or reachability iteration), raising {!Runtime.Exceeded}
    or {!Bdd.Manager.Node_limit_exceeded} instead of running unbounded
    after the deadline has expired. *)

val particular_contained :
  ?runtime:Runtime.t -> Problem.t -> Split.t -> Fsa.Automaton.t -> bool
(** Check (1). [X] must be deterministic (the solvers' outputs are); the
    latch-bank state set is tracked as a BDD over the [v] variables paired
    with each explicit state of [X]. *)

val composition_equals_spec : ?runtime:Runtime.t -> Problem.t -> Split.t -> bool
(** Check (2): product-machine reachability ([Img.Reach.fixpoint]) of
    [F × X_P] against [S] with an output-equality invariant. The [v] and
    [u] variables double as the latch bank's current- and next-state
    variables, so the check reuses the problem's partitions unchanged. *)

val composition_with_machine :
  ?runtime:Runtime.t -> Problem.t -> Machine.t -> bool
(** The same product-machine check with an arbitrary Moore machine in place
    of [X] — used to certify a sub-solution extracted from the CSF
    ({!Extract}): the composition [F × X'] must still implement [S]
    exactly. The machine is synthesized ({!Machine.to_netlist}), and fresh
    state variables for [X'] are allocated at the bottom of the order. *)
