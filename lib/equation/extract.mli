(** Extraction of an implementable sub-solution from the CSF — the paper's
    closing "outstanding problem for future research" ("finding an optimum
    sub-solution of the CSF"), answered here with one fixed output rule:

    walk the CSF from its initial state and, at each reached state, commit
    to one Moore output [v̂] that keeps the state input-progressive (some
    transition exists for every [u] under [v̂]); the CSF's determinism then
    yields a unique successor per [u]. The result is a Moore machine whose
    behaviour is contained in the CSF by construction, hence a legal
    replacement for the split-out latches.

    The output [v̂] of a state is the first minterm of its admissible
    outputs. Picking a good implementation out of the flexibility is an
    optimisation problem of its own; a rule that preferred self-loops was
    never smaller on 78 measured instances and is not kept (EXPERIMENTS.md,
    "One output rule for extraction"). *)

val moore_sub_solution : Problem.t -> Fsa.Automaton.t -> Machine.t option
(** [moore_sub_solution p csf] is [None] when the initial state is not
    Moore-viable: no choice of outputs [v̂] answers every [u] forever. The
    viable states are a greatest fixpoint, computed on the CSF's worklist
    ({!Csf.prune}); a state's admissible outputs are those that send every
    [u] to a viable state, and the walk only ever picks among them. This
    cannot fail for the CSF of a latch split, whose particular solution is
    Moore, but may for hand-made automata. The walk numbers machine states
    in breadth-first discovery order. The CSF must be deterministic
    (as produced by {!Csf.of_arena}); its states must all be accepting. *)

val resynthesize :
  Problem.t ->
  Fsa.Automaton.t ->
  (Network.Netlist.t * Machine.t) option
(** Extract, Moore-minimize, and synthesize as a circuit
    (binary state encoding). The netlist's inputs/outputs carry the
    problem's [u]/[v] names, so it drops into the hole left by
    {!Split.split}. *)
