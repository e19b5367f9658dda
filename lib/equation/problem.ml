module M = Bdd.Manager
module O = Bdd.Ops
module N = Network.Netlist
module S = Network.Symbolic

type t = {
  man : Bdd.Manager.t;
  i_vars : int list;
  v_vars : int list;
  u_vars : int list;
  o_vars : int list;
  dc_var : int;
  dc_next_var : int;
  f_sym : Network.Symbolic.t;
  s_sym : Network.Symbolic.t;
  f_out_o : int list;
  f_out_u : int list;
  s_out_o : int list;
  u_names : string list;
  v_names : string list;
  observed_i : int list;
}

let names_of_inputs (net : N.t) =
  List.map (fun id -> N.net_name net id) net.N.inputs

let names_of_outputs (net : N.t) = List.map fst net.N.outputs
let names_of_latches (net : N.t) =
  List.map (fun id -> N.net_name net id) net.N.latches

let check_wiring ~f ~s ~u_names ~v_names =
  let sort = List.sort String.compare in
  let s_ins = names_of_inputs s and f_ins = names_of_inputs f in
  if sort f_ins <> sort (s_ins @ v_names) then
    invalid_arg "Problem.make: F inputs must be S inputs plus v names";
  let s_outs = names_of_outputs s and f_outs = names_of_outputs f in
  if sort f_outs <> sort (s_outs @ u_names) then
    invalid_arg "Problem.make: F outputs must be S outputs plus u names"

(* the position of [name] in [names], or -1 *)
let index_of name names =
  let rec go i =
    if i = Array.length names then -1
    else if String.equal names.(i) name then i
    else go (i + 1)
  in
  go 0

let make ?man ?(affinities = []) ?(observed_inputs = []) ~f ~s ~u_names
    ~v_names () =
  check_wiring ~f ~s ~u_names ~v_names;
  let man = match man with Some m -> m | None -> M.create () in
  (* Variable allocation. The order is critical for the partitioned flow:
     an alphabet variable [u.ℓ] equals the next state of [S]'s latch [ℓ]
     whenever outputs conform, and [v.ℓ] tracks its current state, so
     placing them far apart makes [P_ζ(u,v,ns)] blow up exponentially in
     the number of split latches. [affinities] (from latch splitting) names
     these correlations; affine alphabet variables are allocated adjacent
     to their latch's state variables. The variables of names are kept
     in arrays indexed like the name lists. *)
  let s_ins = Array.of_list (names_of_inputs s) in
  let i_var = Array.map (fun n -> M.new_var ~name:n man) s_ins in
  let affine n =
    List.exists (fun (v, u, _) -> String.equal v n || String.equal u n)
      affinities
  in
  let vs = Array.of_list v_names and us = Array.of_list u_names in
  let v_var = Array.make (Array.length vs) (-1) in
  let u_var = Array.make (Array.length us) (-1) in
  let alloc_free names vars =
    Array.iteri
      (fun k n -> if not (affine n) then vars.(k) <- M.new_var ~name:n man)
      names
  in
  alloc_free vs v_var;
  alloc_free us u_var;
  let s_out_names = names_of_outputs s in
  let o_vars = List.map (fun n -> M.new_var ~name:n man) s_out_names in
  let dc_var = M.new_var ~name:"dc" man in
  let dc_next_var = M.new_var ~name:"dc'" man in
  (* latch variables: pair F's latch with S's latch of the same name, and
     put affine v/u alphabet variables right before their latch group *)
  let alloc_latch prefix n =
    let cs = M.new_var ~name:(prefix ^ n) man in
    let ns = M.new_var ~name:(prefix ^ n ^ "'") man in
    (cs, ns)
  in
  let set names vars n var =
    let k = index_of n names in
    if k >= 0 then vars.(k) <- var
  in
  let f_latches = Array.of_list (names_of_latches f) in
  let f_pairs = Array.make (Array.length f_latches) (-1, -1) in
  let s_pairs =
    List.map
      (fun n ->
        (match List.find_opt (fun (_, _, l) -> String.equal l n) affinities with
         | Some (vn, un, _) ->
           let vv = M.new_var ~name:vn man in
           let uv = M.new_var ~name:un man in
           set vs v_var vn vv;
           set us u_var un uv
         | None -> ());
        let k = index_of n f_latches in
        if k >= 0 then f_pairs.(k) <- alloc_latch "F." n;
        alloc_latch "S." n)
      (names_of_latches s)
  in
  Array.iteri
    (fun k n -> if fst f_pairs.(k) < 0 then f_pairs.(k) <- alloc_latch "F." n)
    f_latches;
  let to_list vars =
    if Array.exists (fun v -> v < 0) vars then
      invalid_arg "Problem.make: an affinity names no latch of S";
    Array.to_list vars
  in
  let v_vars = to_list v_var and u_vars = to_list u_var in
  let f_pairs = Array.to_list f_pairs in
  (* input variable maps for the two networks *)
  let f_input_vars =
    List.map
      (fun n ->
        let k = index_of n s_ins in
        if k >= 0 then i_var.(k) else v_var.(index_of n vs))
      (names_of_inputs f)
  in
  let i_vars = Array.to_list i_var in
  let f_sym =
    S.build man ~input_vars:f_input_vars ~state_vars:(List.map fst f_pairs)
      ~next_state_vars:(List.map snd f_pairs) f
  in
  let s_sym =
    S.build man ~input_vars:i_vars ~state_vars:(List.map fst s_pairs)
      ~next_state_vars:(List.map snd s_pairs) s
  in
  let f_out_o = List.map (fun n -> S.output_fn f_sym n) s_out_names in
  let f_out_u = List.map (fun n -> S.output_fn f_sym n) u_names in
  let s_out_o = List.map (fun n -> S.output_fn s_sym n) s_out_names in
  let observed_i =
    List.map
      (fun n ->
        let k = index_of n s_ins in
        if k < 0 then
          invalid_arg
            (Printf.sprintf "Problem.make: unknown observed input %s" n);
        i_var.(k))
      observed_inputs
  in
  { man; i_vars; v_vars; u_vars; o_vars; dc_var; dc_next_var; f_sym; s_sym;
    f_out_o; f_out_u; s_out_o; u_names; v_names; observed_i }

let state_vars t = t.f_sym.S.state_vars @ t.s_sym.S.state_vars
let next_state_vars t = t.f_sym.S.next_state_vars @ t.s_sym.S.next_state_vars

let ns_to_cs t = S.ns_to_cs t.f_sym @ S.ns_to_cs t.s_sym

(* The relation-part builders accumulate unpinned part ids in plain lists
   while still allocating, so they run frozen; the finished parts are the
   caller's to pin (or to hand to an image kernel that pins them). *)
let conformance_parts t =
  M.with_frozen t.man @@ fun () ->
  List.map2 (fun fo so -> O.bxnor t.man fo so) t.f_out_o t.s_out_o

let u_relation_parts t =
  Img.Partition.of_functions t.man (List.combine t.u_vars t.f_out_u)

let transition_parts t =
  Img.Partition.of_functions t.man
    (List.combine
       (t.f_sym.S.next_state_vars @ t.s_sym.S.next_state_vars)
       (t.f_sym.S.next_fns @ t.s_sym.S.next_fns))

let initial_cube t = O.band t.man t.f_sym.S.init_cube t.s_sym.S.init_cube

let alphabet t =
  List.sort Int.compare (t.u_vars @ t.v_vars @ t.observed_i)

let hidden_inputs t =
  List.filter (fun v -> not (List.mem v t.observed_i)) t.i_vars

let x_input_vars t = List.sort Int.compare (t.u_vars @ t.observed_i)

(* Rebuild the instance in a fresh manager whose variable order is the
   FORCE algorithm's placement over the relation-part supports (the
   rebuild-based analog of dynamic reordering — see Bdd.Reorder). Used by
   the degradation ladder after a node-limit blow-up: the old manager keeps
   only the compact final parts' worth of nodes alive in the copy, and the
   retry starts from a fresh allocation budget. The caller must lift the
   old manager's node limit and allocation hook first (Runtime.detach):
   forming the relation parts below may allocate a few nodes in it. *)
let reorder (p : t) =
  let man = p.man in
  (* freeze the source manager: the part lists built below live only in
     OCaml lists until the migration finishes (the destination manager is
     frozen by [Reorder.migrate] itself, which also protects the migrated
     roots there) *)
  M.with_frozen man @@ fun () ->
  let parts = transition_parts p @ u_relation_parts p @ conformance_parts p in
  let hyperedges =
    List.filter (fun s -> s <> []) (List.map (O.support man) parts)
  in
  let sym_roots (sym : S.t) =
    sym.S.next_fns @ List.map snd sym.S.output_fns @ [ sym.S.init_cube ]
  in
  let roots = sym_roots p.f_sym @ sym_roots p.s_sym in
  let dst, roots', var_map = Bdd.Reorder.reorder man ~hyperedges roots in
  let rest = ref roots' in
  let take n =
    let rec go k acc =
      if k = 0 then List.rev acc
      else
        match !rest with
        | [] -> assert false
        | x :: tl ->
          rest := tl;
          go (k - 1) (x :: acc)
    in
    go n []
  in
  let rebuild (sym : S.t) =
    let next_fns = take (List.length sym.S.next_fns) in
    let out_fns = take (List.length sym.S.output_fns) in
    let init_cube = List.hd (take 1) in
    { sym with
      S.man = dst;
      S.input_vars = List.map var_map sym.S.input_vars;
      S.state_vars = List.map var_map sym.S.state_vars;
      S.next_state_vars = List.map var_map sym.S.next_state_vars;
      S.next_fns;
      S.output_fns =
        List.map2 (fun (name, _) fn -> (name, fn)) sym.S.output_fns out_fns;
      S.init_cube }
  in
  let f_sym = rebuild p.f_sym in
  let s_sym = rebuild p.s_sym in
  assert (!rest = []);
  let vmap = List.map var_map in
  { man = dst;
    i_vars = vmap p.i_vars;
    v_vars = vmap p.v_vars;
    u_vars = vmap p.u_vars;
    o_vars = vmap p.o_vars;
    dc_var = var_map p.dc_var;
    dc_next_var = var_map p.dc_next_var;
    f_sym;
    s_sym;
    f_out_o = List.map (fun (n, _) -> S.output_fn f_sym n) s_sym.S.output_fns;
    f_out_u = List.map (fun n -> S.output_fn f_sym n) p.u_names;
    s_out_o = List.map snd s_sym.S.output_fns;
    u_names = p.u_names;
    v_names = p.v_names;
    observed_i = vmap p.observed_i }
