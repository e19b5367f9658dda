(** The paper's core algorithm (§3.2): solving [F • X ⊆ S] directly on the
    partitioned representation. Completion, complementation, product and
    hiding are all folded into one modified subset construction whose inner
    step is an image computation. This module supplies the two images of a
    subset state [ζ(cs)] as the {!Engine.oracle}'s [relation]:

    - conformance [C(i,v,cs) = ∧_j (O^F_j ↔ O^S_j)] is kept one output at a
      time; [o] never becomes a BDD variable;
    - the non-conformance condition [Q_ζ(u,v) = ∃i,cs (Urel ∧ ¬C ∧ ζ)]
      holds the symbols the engine redirects to the non-accepting sink
      [DCN] (the early trimming justified by the paper's prefix-closedness
      argument);
    - the successor relation
      [P_ζ(u,v,ns) = ∃i,cs (Urel ∧ Trel ∧ ζ) ∧ ¬Q_ζ] is computed by the
      partitioned image engine with early quantification.

    {!Engine.run} splits [P_ζ] into distinct successors and completes
    each state: symbols in neither [P_ζ] nor [Q_ζ] go to the accepting
    sink [DCA]. The returned automaton is already the complemented (most
    general prefix-closed) solution: subset states and [DCA] accepting,
    [DCN] not. Apply {!Csf.of_arena} to it to obtain the CSF. *)

val kernel_label : Img.Image.strategy -> string
(** The image kernel a strategy selects, which is also the partition it
    runs on: ["affinity:500/greedy"] for [Partitioned Greedy] (the
    default), the greedy schedule over the relation parts clustered by
    {!Img.Partition.cluster_affinity} under a 500-node threshold (the
    bench-ablated sweet spot, see EXPERIMENTS.md); ["unclustered/given"]
    for [Partitioned Given], the given order over one conjunct per
    latch/output. *)

val solve_arena :
  ?runtime:Runtime.t ->
  ?strategy:Img.Image.strategy ->
  ?on_state:(int -> unit) ->
  Problem.t ->
  Fsa.Automaton.t * int
(** The solution automaton ({!Engine.run}) and the number of subset states explored
    (excluding the sinks). Image computations are counted on the runtime
    ({!Runtime.images}) and on the [image.calls] counter.

    With [runtime], the solver ticks the runtime through the [Build]
    (relation clustering) and [Subset] phases: {!Runtime.Exceeded} is raised
    past the deadline and {!Bdd.Manager.Node_limit_exceeded} past the node
    budget (or at an injected fault), with partial progress recorded on the
    runtime. [strategy] (default [Partitioned Greedy]) picks one of the two
    kernels of {!kernel_label}. [on_state] is a progress callback invoked
    with each subset state index as it is expanded. *)
