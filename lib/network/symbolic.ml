module M = Bdd.Manager
module O = Bdd.Ops

type t = {
  man : Bdd.Manager.t;
  net : Netlist.t;
  input_vars : int list;
  state_vars : int list;
  next_state_vars : int list;
  next_fns : int list;
  output_fns : (string * int) list;
  init_cube : int;
}

let build man ~input_vars ~state_vars ~next_state_vars (net : Netlist.t) =
  if List.length input_vars <> List.length net.inputs then
    invalid_arg "Symbolic.build: input variable count mismatch";
  if
    List.length state_vars <> List.length net.latches
    || List.length next_state_vars <> List.length net.latches
  then invalid_arg "Symbolic.build: state variable count mismatch";
  (* [bdd_of_net] holds unpinned ids during construction, so build frozen;
     the finished functions are protected permanently — every problem
     derivation (transition parts, conformance) recomputes from them, so
     they must survive all future collections *)
  M.with_frozen man @@ fun () ->
  let n = Array.length net.drivers in
  let bdd_of_net = Array.make n (-1) in
  List.iter2
    (fun id v -> bdd_of_net.(id) <- O.var_bdd man v)
    net.inputs input_vars;
  List.iter2
    (fun id v -> bdd_of_net.(id) <- O.var_bdd man v)
    net.latches state_vars;
  Netlist.iter_topo
    (fun id ->
      match net.drivers.(id) with
      | Netlist.Input | Netlist.Latch _ -> ()
      | Netlist.Node { fanins; fn } ->
        bdd_of_net.(id) <-
          Expr.to_bdd man (fun k -> bdd_of_net.(fanins.(k))) fn)
    net;
  let next_fns =
    List.map (fun id -> bdd_of_net.(Netlist.latch_input net id)) net.latches
  in
  let output_fns =
    List.map (fun (name, id) -> (name, bdd_of_net.(id))) net.outputs
  in
  let init_cube =
    O.cube_of_literals man
      (List.map2
         (fun id v -> (v, Netlist.latch_init net id))
         net.latches state_vars)
  in
  List.iter (M.protect man) next_fns;
  List.iter (fun (_, f) -> M.protect man f) output_fns;
  M.protect man init_cube;
  { man; net; input_vars; state_vars; next_state_vars; next_fns; output_fns;
    init_cube }

let of_netlist man (net : Netlist.t) =
  let input_vars =
    List.map (fun id -> M.new_var ~name:(Netlist.net_name net id) man) net.inputs
  in
  let pairs =
    List.map
      (fun id ->
        let name = Netlist.net_name net id in
        let cs = M.new_var ~name man in
        let ns = M.new_var ~name:(name ^ "'") man in
        (cs, ns))
      net.latches
  in
  build man ~input_vars ~state_vars:(List.map fst pairs)
    ~next_state_vars:(List.map snd pairs) net

let output_fn t name = List.assoc name t.output_fns

let transition_parts t = List.combine t.next_state_vars t.next_fns

let ns_to_cs t = List.combine t.next_state_vars t.state_vars
