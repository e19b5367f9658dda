module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

let c_pairs = Obs.Counter.make "verify.pairs_visited"
let c_frontier = Obs.Counter.make "verify.frontier_steps"

let enter_verify runtime =
  Option.iter (fun rt -> Runtime.enter_phase rt Runtime.Verify) runtime

let particular_contained ?runtime (p : Problem.t) (sp : Split.t) (x : A.t) =
  enter_verify runtime;
  let tick = Runtime.ticker runtime in
  let man = p.Problem.man in
  (* the σ cubes queued below are tiny but held across allocation in plain
     tables; the whole walk allocates a bounded number of small cubes, so
     run it frozen rather than pinning each one *)
  M.with_frozen man @@ fun () ->
  if A.num_states x = 0 then false
  else begin
    (* quantify the bank's outputs and any observed inputs to obtain the
       successor's u-part *)
    let v_cube =
      O.cube_of_vars man (p.Problem.v_vars @ p.Problem.observed_i)
    in
    let u_to_v =
      O.renaming man (List.combine p.Problem.u_vars p.Problem.v_vars)
    in
    let init_sigma =
      O.cube_of_literals man
        (List.map2 (fun v b -> (v, b)) p.Problem.v_vars sp.Split.x_init)
    in
    (* the visited pairs, keyed by the state above the σ cube's node id
       (below 2^26) *)
    let seen = Bdd.Idtbl.create 8 false in
    let queue = Queue.create () in
    let push ((xs, sigma) as pair) =
      let key = (xs lsl 26) lor sigma in
      if not (Bdd.Idtbl.find seen key) then begin
        Bdd.Idtbl.replace seen key true;
        Queue.add pair queue
      end
    in
    push (x.A.initial, init_sigma);
    let ok = ref true in
    while !ok && not (Queue.is_empty queue) do
      tick ();
      if !Obs.on then Obs.Counter.bump c_pairs;
      let xs, sigma = Queue.pop queue in
      (* Every latch-bank move (v ∈ σ, any u) must be covered by X. *)
      let defined = A.defined_guard x xs in
      if O.bdiff man sigma defined <> M.zero then ok := false
      else
        List.iter
          (fun (g, xs') ->
            let move = O.band man sigma g in
            if move <> M.zero then begin
              (* successor latch-bank states: the u-part of the move *)
              let u_part = O.exists man v_cube move in
              let sigma' = O.rename_by man u_part u_to_v in
              push (xs', sigma')
            end)
          x.A.edges.(xs)
    done;
    !ok
  end

(* The one product-machine check behind (2) and the certification of an
   extracted machine: reachability over F × S × X that fails as soon as a
   frontier holds a bad state. X is given by its current- and next-state
   variables and by [x ()], built in the check's frozen window: the parts
   that define v from X's state, X's transition parts and its initial
   cube. The latch bank is the X whose state is v and whose next state is
   u, with no parts. A composed state is bad when for some input the
   outputs of F (driven by X's v) and S differ; that set, ∃(i, the v that
   are not X's state). ¬C ∧ v-definitions, is formed once. The images are
   counted without the runtime ([Engine.note_image ()]): they share the
   unified [image.calls] name but stay out of the fault-injection path.
   Every frontier, the final empty one included, is one tick and one
   [verify.frontier_steps]. *)
let composition runtime (p : Problem.t) ~x_state ~x_next x =
  let man = p.Problem.man in
  let f = p.Problem.f_sym and s = p.Problem.s_sym in
  let module NS = Network.Symbolic in
  let outside vars = List.filter (fun v -> not (List.mem v vars)) in
  let hidden_v = outside x_state p.Problem.v_vars in
  M.with_roots man @@ fun rs ->
  let pin id = ignore (M.Roots.add rs id : int) in
  (* the prologue chains part-list builders whose results live in plain
     lists: build frozen, then pin what the fixpoint keeps *)
  let parts, bad, init =
    M.with_frozen man @@ fun () ->
    let v_definitions, x_parts, x_init = x () in
    let nonconformance =
      O.bnot man (O.conj man (Problem.conformance_parts p))
    in
    let bad =
      Img.Quantify.and_exists_list man
        (nonconformance :: v_definitions)
        ~quantify:(p.Problem.i_vars @ hidden_v)
    in
    let init = O.conj man [ f.NS.init_cube; s.NS.init_cube; x_init ] in
    ( Problem.transition_parts p @ Problem.u_relation_parts p @ v_definitions
      @ x_parts,
      bad,
      init )
  in
  List.iter pin parts;
  pin bad;
  pin init;
  let tick = Runtime.ticker runtime in
  let forward =
    Img.Image.forward man ~strategy:(Img.Image.Partitioned Img.Quantify.Greedy)
      ~parts
      ~quantify:
        (p.Problem.i_vars @ outside x_next p.Problem.u_vars @ hidden_v
        @ Problem.state_vars p @ x_state)
      ~rename:(Problem.ns_to_cs p @ List.combine x_next x_state)
  in
  let image frontier =
    Engine.note_image ();
    forward frontier
  in
  let on_frontier _ =
    tick ();
    if !Obs.on then Obs.Counter.bump c_frontier
  in
  match
    Img.Reach.fixpoint man
      ~bad:(fun frontier -> O.band man frontier bad <> M.zero)
      ~on_frontier ~image init
  with
  | Img.Reach.Reached _ -> true
  | Img.Reach.Met_bad -> false

let composition_with_machine ?runtime (p : Problem.t) (machine : Machine.t) =
  enter_verify runtime;
  let man = p.Problem.man in
  let module NS = Network.Symbolic in
  (* synthesize the machine and give it fresh interleaved state variables *)
  let xnet = Machine.to_netlist machine in
  let pairs =
    List.map
      (fun id ->
        let name = Network.Netlist.net_name xnet id in
        let cs = M.new_var ~name:("X." ^ name) man in
        let ns = M.new_var ~name:("X." ^ name ^ "'") man in
        (cs, ns))
      xnet.Network.Netlist.latches
  in
  let x_sym =
    NS.build man
      ~input_vars:machine.Machine.u_vars
      ~state_vars:(List.map fst pairs)
      ~next_state_vars:(List.map snd pairs)
      xnet
  in
  composition runtime p ~x_state:x_sym.NS.state_vars
    ~x_next:x_sym.NS.next_state_vars
  @@ fun () ->
  (* the machine's outputs are named after the v variables *)
  ( List.map2
      (fun vvar vname ->
        O.bxnor man (O.var_bdd man vvar) (NS.output_fn x_sym vname))
      p.Problem.v_vars p.Problem.v_names,
    List.map
      (fun (nsv, fn) -> O.bxnor man (O.var_bdd man nsv) fn)
      (NS.transition_parts x_sym),
    x_sym.NS.init_cube )

let composition_equals_spec ?runtime (p : Problem.t) (sp : Split.t) =
  enter_verify runtime;
  let man = p.Problem.man in
  composition runtime p ~x_state:p.Problem.v_vars ~x_next:p.Problem.u_vars
  @@ fun () ->
  ( [],
    [],
    O.cube_of_literals man
      (List.map2 (fun v b -> (v, b)) p.Problem.v_vars sp.Split.x_init) )
