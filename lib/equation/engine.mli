(** The shared symbolic subset-construction engine.

    Both determinization flows — the paper's partitioned flow and the
    monolithic contrast implementation — are instances of one modified
    subset construction: explore subset states from a start state,
    intern each state by its canonical BDD, split the successor relation
    into (guard, successor) arcs, and complete each state to the sinks
    DCN and DCA. The engine owns what the two flows share: the frontier
    queue, the interning table, the arc arena, the completion, the
    root-set/pinning discipline, the memoized splitter
    ({!Subset.memo_splitter}) and the Runtime/Obs accounting. A flow
    reduces to a {!oracle} — its start state and the relations of one
    subset state — and the {!Solve} ladder swaps oracles instead of
    calling divergent entry points.

    The construction's result is an {!arena}: flat int-indexed arrays of
    states and arcs, cheaper to traverse than the [Fsa.Automaton] record
    and the substrate of the worklist CSF extraction ({!Csf.of_arena}).
    Conversion to a validated automaton happens only at the edges
    ({!to_automaton}). *)

type oracle = {
  start : int;  (** canonical BDD of the initial subset state *)
  ns_cube : int;  (** next-state cube handed to {!Subset.split_successors} *)
  rename : (int * int) list;
      (** next-state → current-state variable renaming applied by the
          engine to every successor class *)
  relation : int -> int * int;
      (** [relation zeta] is [(P_ζ, Q_ζ)], both unpinned: the successor
          relation over the alphabet and next-state variables, and the
          symbols that lead to the non-accepting sink DCN ([zero] in the
          monolithic flow). The engine pins both, splits [P_ζ] into
          successor classes (in {!Subset.split_successors}' order), then
          emits [Q_ζ] → DCN and [¬(∃ns P_ζ ∨ Q_ζ)] → DCA, each only when
          non-[zero]. *)
  is_accepting : int -> bool;
      (** acceptance of a core subset state (queried by its BDD, with the
          construction roots still held) *)
}

(** The engine's result: core subset states [0 .. n_core-1] in discovery
    order, then the sinks some arc reaches, DCN (non-accepting) before
    DCA (accepting), each with a guard-[one] self-loop. Arcs are flat
    parallel arrays in emission order (core arcs first, then the sink
    self-loops); every distinct guard is protected once for the manager's
    lifetime, so the arena survives the inter-phase collections of the
    solve ladder.

    [arc_src] is non-decreasing: the core states are expanded in index
    order (a FIFO queue), each emitting its arcs together, and the sink
    self-loops follow in ascending id. So the arcs of state [s] form one
    contiguous index range, which {!Csf.of_arena} relies on. *)
type arena = {
  man : Bdd.Manager.t;
  alphabet : int list;
  initial : int;
  accepting : bool array;
  names : string array;
  arc_src : int array;
  arc_guard : int array;
  arc_dst : int array;
}

val num_states : arena -> int
val num_arcs : arena -> int

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
  arena * int
(** [run man ~alphabet make_oracle] builds the oracle inside a fresh root
    set (the [Build] phase: the oracle pins its long-lived relations
    there), then drives the subset construction (the [Subset] phase:
    tick, progress notes, [subset.states_expanded]) to exhaustion and
    returns the arena together with the number of core subset states
    (the sinks excluded). The root set is released on return; everything
    the arena needs has been protected permanently by then. *)

val to_automaton : arena -> Fsa.Automaton.t
(** Validated [Fsa.Automaton] with the arena's states in order and each
    state's arcs in emission order. *)
