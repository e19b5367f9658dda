module M = Bdd.Manager
module O = Bdd.Ops

(* The two image kernels. Greedy runs on the partition clustered by
   affinity under a 500-node threshold: on t298 that roughly halves solve
   time and is flat across 100–1000-node thresholds (the clustering sweep
   of EXPERIMENTS.md). Given runs on the unclustered parts. *)
let cluster_threshold = 500

let kernel_label = function
  | Img.Image.Partitioned Img.Quantify.Greedy ->
    Printf.sprintf "affinity:%d/greedy" cluster_threshold
  | Img.Image.Partitioned Img.Quantify.Given -> "unclustered/given"

let oracle ?runtime ~strategy (p : Problem.t) rs =
  let man = p.Problem.man in
  let pin id = ignore (M.Roots.add rs id : int) in
  let quantified = Problem.hidden_inputs p @ Problem.state_vars p in
  let ns_cube = O.cube_of_vars man (Problem.next_state_vars p) in
  pin ns_cube;
  let cluster parts =
    (match strategy with
     | Img.Image.Partitioned Img.Quantify.Greedy ->
       Img.Partition.cluster_affinity man ~threshold:cluster_threshold parts
     | Img.Image.Partitioned Img.Quantify.Given -> parts)
    |> List.map (fun part -> M.Roots.add rs part)
  in
  let urel = cluster (Problem.u_relation_parts p) in
  let trel = cluster (Problem.transition_parts p) in
  let non_conformance =
    M.with_frozen man @@ fun () ->
    List.map (O.bnot man) (Problem.conformance_parts p)
  in
  List.iter pin non_conformance;
  let conjoin_exists rels =
    Engine.note_image ?runtime ();
    Img.Image.image man ~strategy rels ~quantify:quantified
  in
  (* Q_ζ(u,v): symbols under which some input causes an output of F that
     does not conform to S. The per-output non-conformance conditions range
     over (i,v,cs) only — the dangerous ns variables are not involved — so
     they are disjoined once and each subset state runs a single image
     instead of the paper text's one image per output. The disjunction is
     forced by the first subset state: computing it during the build moves
     the collections and with them every traced kernel counter. *)
  let combined_non_conformance =
    lazy (M.Roots.add rs (O.disj man non_conformance))
  in
  (* Q_ζ stays on the operation stack while the P_ζ image allocates, and
     the successor image while [bdiff] does; the engine pins what this
     returns *)
  let relation zeta =
    let q =
      conjoin_exists (zeta :: Lazy.force combined_non_conformance :: urel)
    in
    M.stack_push man q;
    let sr = conjoin_exists ((zeta :: urel) @ trel) in
    M.stack_push man sr;
    let p_rel = O.bdiff man sr q in
    M.stack_drop man 2;
    (p_rel, q)
  in
  { Engine.start = Problem.initial_cube p;
    ns_cube;
    rename = Problem.ns_to_cs p;
    relation;
    is_accepting = (fun _ -> true) }

let solve_arena ?runtime ?(strategy = Img.Image.Partitioned Img.Quantify.Greedy)
    ?on_state (p : Problem.t) =
  Engine.run ?runtime ?on_state p.Problem.man ~alphabet:(Problem.alphabet p)
    (oracle ?runtime ~strategy p)
