module N = Network.Netlist
module O = Bdd.Ops

type t = {
  f : Network.Netlist.t;
  u_names : string list;
  v_names : string list;
  x_init : bool list;
  x_latch_names : string list;
}

let split (net : N.t) ~x_latches =
  (* the split latches and the new network's nets, by net id *)
  let is_split = Array.make (Array.length net.N.drivers) false in
  List.iter
    (fun n ->
      match
        List.find_opt (fun id -> String.equal (N.net_name net id) n)
          net.N.latches
      with
      | Some id -> is_split.(id) <- true
      | None -> invalid_arg (Printf.sprintf "Split.split: no latch named %s" n))
    x_latches;
  if x_latches = [] then invalid_arg "Split.split: empty latch subset";
  let b = N.create (net.N.name ^ "_F") in
  let map = Array.make (Array.length net.N.drivers) (-1) in
  (* primary inputs keep their names *)
  List.iter
    (fun id -> map.(id) <- N.add_input b (N.net_name net id))
    net.N.inputs;
  (* split latches become inputs v.<latch>; kept latches stay latches *)
  List.iter
    (fun id ->
      map.(id) <-
        (if is_split.(id) then N.add_input b ("v." ^ N.net_name net id)
         else
           N.add_latch b ~name:(N.net_name net id) ~init:(N.latch_init net id)
             ()))
    net.N.latches;
  (* combinational nodes, in topological order *)
  N.iter_topo
    (fun id ->
      match net.N.drivers.(id) with
      | N.Input | N.Latch _ -> ()
      | N.Node { fanins; fn } ->
        map.(id) <-
          N.add_node b ~name:(N.net_name net id) fn
            (Array.map (Array.get map) fanins))
    net;
  (* reconnect kept latches *)
  List.iter
    (fun id ->
      if not is_split.(id) then
        N.set_latch_input b map.(id) map.(N.latch_input net id))
    net.N.latches;
  (* original outputs *)
  List.iter (fun (name, id) -> N.add_output b name map.(id)) net.N.outputs;
  (* u.<latch> outputs expose the split latches' next-state functions *)
  let ordered_split = List.filter (Array.get is_split) net.N.latches in
  List.iter
    (fun id ->
      N.add_output b ("u." ^ N.net_name net id) map.(N.latch_input net id))
    ordered_split;
  let x_latch_names = List.map (N.net_name net) ordered_split in
  { f = N.freeze b;
    u_names = List.map (fun n -> "u." ^ n) x_latch_names;
    v_names = List.map (fun n -> "v." ^ n) x_latch_names;
    x_init = List.map (N.latch_init net) ordered_split;
    x_latch_names }

let problem ?man ?observed_inputs net ~x_latches =
  let sp = split net ~x_latches in
  let affinities =
    List.map2
      (fun (v, u) l -> (v, u, l))
      (List.combine sp.v_names sp.u_names)
      sp.x_latch_names
  in
  let p =
    Problem.make ?man ~affinities ?observed_inputs ~f:sp.f ~s:net
      ~u_names:sp.u_names ~v_names:sp.v_names ()
  in
  (sp, p)

let particular_solution (p : Problem.t) (sp : t) =
  let man = p.Problem.man in
  (* guards accumulate in [edges] before [make] pins them: build frozen *)
  Bdd.Manager.with_frozen man @@ fun () ->
  let k = List.length sp.x_latch_names in
  if k > 12 then
    invalid_arg "Split.particular_solution: too many latches to enumerate";
  let n = 1 lsl k in
  let bit bits j = bits land (1 lsl j) <> 0 in
  let cube vars bits =
    O.cube_of_literals man (List.mapi (fun j v -> (v, bit bits j)) vars)
  in
  let edges =
    Array.init n (fun s ->
        List.init n (fun d ->
            ( O.band man
                (cube p.Problem.v_vars s)
                (cube p.Problem.u_vars d),
              d )))
  in
  let initial =
    List.fold_left
      (fun acc (j, b) -> if b then acc lor (1 lsl j) else acc)
      0
      (List.mapi (fun j b -> (j, b)) sp.x_init)
  in
  let names =
    Array.init n (fun s ->
        String.init k (fun j -> if bit s j then '1' else '0'))
  in
  Fsa.Automaton.make man
    ~alphabet:(p.Problem.u_vars @ p.Problem.v_vars)
    ~initial
    ~accepting:(Array.make n true)
    ~edges ~names ()
