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
  let sort = List.sort compare in
  let s_ins = names_of_inputs s and f_ins = names_of_inputs f in
  if sort f_ins <> sort (s_ins @ v_names) then
    invalid_arg "Problem.make: F inputs must be S inputs plus v names";
  let s_outs = names_of_outputs s and f_outs = names_of_outputs f in
  if sort f_outs <> sort (s_outs @ u_names) then
    invalid_arg "Problem.make: F outputs must be S outputs plus u names"

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
     to their latch's state variables. *)
  let s_in_names = names_of_inputs s in
  let i_vars0 = List.map (fun n -> M.new_var ~name:n man) s_in_names in
  let affinity_of_latch =
    List.map (fun (v, u, l) -> (l, (v, u))) affinities
  in
  let affine_names =
    List.concat_map (fun (v, u, _) -> [ v; u ]) affinities
  in
  let free_v = List.filter (fun n -> not (List.mem n affine_names)) v_names in
  let free_u = List.filter (fun n -> not (List.mem n affine_names)) u_names in
  let free_v_vars = List.map (fun n -> (n, M.new_var ~name:n man)) free_v in
  let free_u_vars = List.map (fun n -> (n, M.new_var ~name:n man)) free_u in
  let s_out_names = names_of_outputs s in
  let o_vars = List.map (fun n -> M.new_var ~name:n man) s_out_names in
  let dc_var = M.new_var ~name:"dc" man in
  let dc_next_var = M.new_var ~name:"dc'" man in
  (* latch variables: pair F's latch with S's latch of the same name, and
     put affine v/u alphabet variables right before their latch group *)
  let f_latch_names = names_of_latches f in
  let s_latch_names = names_of_latches s in
  let alloc_latch prefix n =
    let cs = M.new_var ~name:(prefix ^ n) man in
    let ns = M.new_var ~name:(prefix ^ n ^ "'") man in
    (cs, ns)
  in
  let f_vars = Hashtbl.create 16 and s_vars = Hashtbl.create 16 in
  let affine_vars = Hashtbl.create 16 in
  List.iter
    (fun n ->
      (match List.assoc_opt n affinity_of_latch with
       | Some (vn, un) ->
         let vv = M.new_var ~name:vn man in
         let uv = M.new_var ~name:un man in
         Hashtbl.replace affine_vars vn vv;
         Hashtbl.replace affine_vars un uv
       | None -> ());
      if List.mem n f_latch_names then
        Hashtbl.replace f_vars n (alloc_latch "F." n);
      Hashtbl.replace s_vars n (alloc_latch "S." n))
    s_latch_names;
  List.iter
    (fun n ->
      if not (Hashtbl.mem f_vars n) then
        Hashtbl.replace f_vars n (alloc_latch "F." n))
    f_latch_names;
  let name_var n =
    match Hashtbl.find_opt affine_vars n with
    | Some v -> v
    | None -> (
      match List.assoc_opt n free_v_vars with
      | Some v -> v
      | None -> List.assoc n free_u_vars)
  in
  let v_vars = List.map name_var v_names in
  let u_vars = List.map name_var u_names in
  let i_vars = i_vars0 in
  let latch_vars tbl names =
    List.map (fun n -> Hashtbl.find tbl n) names
  in
  let f_pairs = latch_vars f_vars f_latch_names in
  let s_pairs = latch_vars s_vars s_latch_names in
  (* input variable maps for the two networks *)
  let i_of_name = List.combine s_in_names i_vars in
  let v_of_name = List.combine v_names v_vars in
  let f_input_vars =
    List.map
      (fun n ->
        match List.assoc_opt n i_of_name with
        | Some v -> v
        | None -> List.assoc n v_of_name)
      (names_of_inputs f)
  in
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
        match List.assoc_opt n (List.combine s_in_names i_vars) with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Problem.make: unknown observed input %s" n))
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
  List.sort compare (t.u_vars @ t.v_vars @ t.observed_i)

let hidden_inputs t =
  List.filter (fun v -> not (List.mem v t.observed_i)) t.i_vars

let x_input_vars t = List.sort compare (t.u_vars @ t.observed_i)

(* Rebuild the instance in a fresh manager whose variable order is the
   FORCE heuristic's placement over the relation-part supports (the
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
