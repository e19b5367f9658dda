(** The shared symbolic subset-construction engine.

    Both determinization flows — the paper's partitioned flow and the
    monolithic contrast implementation — are instances of one modified
    subset construction: explore subset states from a start state,
    intern each state by its canonical BDD, split the successor relation
    into (guard, successor) arcs, and complete each state to the sinks
    DCN and DCA. The engine owns what the two flows share: the frontier
    queue, the interning table, the arc lists, the completion, the
    root-set/pinning discipline, the memoized splitter
    ({!Subset.memo_splitter}) and the Runtime/Obs accounting. A flow
    reduces to a {!oracle} — its start state and the relations of one
    subset state — and the {!Solve} ladder swaps oracles instead of
    calling divergent entry points.

    The construction's result is the solution X itself as an
    [Fsa.Automaton.t], assembled directly (not through
    [Fsa.Automaton.make]: every arc is correct by construction) and the
    input of the worklist CSF extraction ({!Csf.of_arena}). *)

type oracle = {
  start : int;  (** canonical BDD of the initial subset state *)
  ns_cube : int;  (** next-state cube handed to {!Subset.memo_splitter} *)
  rename : (int * int) list;
      (** next-state → current-state variable renaming applied by the
          engine to every successor class; the engine builds its
          {!Bdd.Ops.renaming} once per run *)
  relation : int -> int * int;
      (** [relation zeta] is [(P_ζ, Q_ζ)], both unpinned: the successor
          relation over the alphabet and next-state variables, and the
          symbols that lead to the non-accepting sink DCN ([zero] in the
          monolithic flow). The engine pins both, splits [P_ζ] into
          successor classes (in {!Subset.memo_splitter}' order), then
          emits [Q_ζ] → DCN and [¬(∃ns P_ζ ∨ Q_ζ)] → DCA, each only when
          non-[zero]. *)
  is_accepting : int -> bool;
      (** acceptance of a core subset state (queried by its BDD, with the
          construction roots still held) *)
}

val note_image : ?runtime:Runtime.t -> unit -> unit
(** Account one image computation: bumps the unified [image.calls]
    counter (the engine is its sole registration point) and, with
    [runtime], fires {!Runtime.tick_image}. Oracles call this once per
    image; {!Verify} uses the counter-only form so its fixpoint images
    share the same name without entering the fault-injection path. *)

val run :
  ?runtime:Runtime.t ->
  ?on_state:(int -> unit) ->
  Bdd.Manager.t ->
  alphabet:int list ->
  (Bdd.Manager.Roots.set -> oracle) ->
  Fsa.Automaton.t * int
(** [run man ~alphabet make_oracle] builds the oracle inside a fresh root
    set (the [Build] phase: the oracle pins its long-lived relations
    there), then drives the subset construction (the [Subset] phase:
    tick, progress notes, [subset.states_expanded]) to exhaustion and
    returns the solution automaton together with the number of core
    subset states (the sinks excluded). The splitter sees [alphabet] in
    the given order; the automaton's [alphabet] is its sorted copy.

    The automaton's states are the core subset states [0 .. n_core-1] in
    discovery order ([initial] is 0, named ["Z0"], ["Z1"], …), then the
    sinks some arc reaches, DCN (non-accepting) before DCA (accepting),
    each with a guard-[one] self-loop. A core state's edges are its
    successor classes in {!Subset.memo_splitter}' order, then its DCN
    arc, then its DCA arc. The root set is released on return; each
    distinct guard has been protected once for the manager's lifetime by
    then, so the automaton survives the inter-phase collections of the
    solve ladder. *)

val to_automaton : Fsa.Automaton.t -> Fsa.Automaton.t
(** The identity: {!run} already returns the automaton. Its one caller is
    perfbench's traced replay. *)
