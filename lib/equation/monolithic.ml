module M = Bdd.Manager
module O = Bdd.Ops
module S = Network.Symbolic

let oracle ?runtime (p : Problem.t) rs =
  let tick = Runtime.ticker runtime in
  let man = p.Problem.man in
  let f = p.Problem.f_sym and s = p.Problem.s_sym in
  let pin id = ignore (M.Roots.add rs id : int) in
  (* The relation build chains many top-level operations whose operands
     live only in OCaml locals; it runs frozen (growing the store instead
     of collecting), and only the survivors are pinned for the subset
     phase. This is the paper's strawman flow: the monolithic relation is
     the peak anyway, so there is little for a collector to reclaim here. *)
  let d, hidden, cs_cube, ns_cube =
    M.with_frozen man @@ fun () ->
    (* monolithic transition-output relations *)
    let to_f =
      O.conj man @@ Img.Partition.of_functions man
        (List.combine f.S.next_state_vars f.S.next_fns
        @ List.combine p.Problem.u_vars p.Problem.f_out_u
        @ List.combine p.Problem.o_vars p.Problem.f_out_o)
    in
    tick ();
    let to_s =
      O.conj man @@ Img.Partition.of_functions man
        (List.combine s.S.next_state_vars s.S.next_fns
        @ List.combine p.Problem.o_vars p.Problem.s_out_o)
    in
    tick ();
    (* completion of S with the explicit DC state bit (paper §2): undefined
       input/output combinations transition to the unique non-accepting
       state [d = 1], which self-loops. The DC state's next-state code is
       fixed to all-zeros to keep the relation deterministic. *)
    let d = O.var_bdd man p.Problem.dc_var in
    let d' = O.var_bdd man p.Problem.dc_next_var in
    let ns2_cube = O.cube_of_vars man s.S.next_state_vars in
    let undefined = O.bnot man (O.exists man ns2_cube to_s) in
    let zero_ns2 =
      O.conj man (List.map (O.nvar_bdd man) s.S.next_state_vars)
    in
    let nd = O.bnot man d and nd' = O.bnot man d' in
    let to_s_complete =
      O.disj man
        [ O.conj man [ nd; nd'; to_s ];
          O.conj man [ nd; undefined; d'; zero_ns2 ];
          O.conj man [ d; d'; zero_ns2 ] ]
    in
    tick ();
    (* complement(S) flips acceptance to the DC bit; form the product with
       the (incomplete, all-accepting) F and hide the external variables.
       This monolithic quantification is the expensive step the paper
       avoids. *)
    let product = O.band man to_f to_s_complete in
    tick ();
    let io_cube =
      O.cube_of_vars man (Problem.hidden_inputs p @ p.Problem.o_vars)
    in
    let hidden = O.exists man io_cube product in
    tick ();
    let cs_vars = Problem.state_vars p @ [ p.Problem.dc_var ] in
    let ns_vars = Problem.next_state_vars p @ [ p.Problem.dc_next_var ] in
    (d, hidden, O.cube_of_vars man cs_vars, O.cube_of_vars man ns_vars)
  in
  List.iter pin [ d; hidden; cs_cube; ns_cube ];
  let start =
    M.Roots.add rs
      (M.with_frozen man @@ fun () ->
       O.band man (Problem.initial_cube p) (O.bnot man d))
  in
  (* traditional subset construction: one image per expanded state, no
     early trimming of bad subsets, so Q_ζ is [zero] *)
  let relation zeta =
    Engine.note_image ?runtime ();
    (O.and_exists man cs_cube hidden zeta, M.zero)
  in
  { Engine.start;
    ns_cube;
    rename = Problem.ns_to_cs p @ [ (p.Problem.dc_next_var, p.Problem.dc_var) ];
    relation;
    (* acceptance after the final complementation: a subset is accepting
       iff it contains no state of the complemented specification's DC
       (= no product state with d = 1); the completion sink is accepting *)
    is_accepting = (fun zeta -> O.band man zeta d = M.zero) }

let solve_arena ?runtime (p : Problem.t) =
  Engine.run ?runtime p.Problem.man ~alphabet:(Problem.alphabet p)
    (oracle ?runtime p)
