module M = Bdd.Manager
module O = Bdd.Ops
module S = Network.Symbolic

type outcome = Reached of { reached : int; steps : int } | Met_bad

(* The loop-carried sets are protected and re-pinned at each step, so the
   previous iterate becomes collectable the moment it is superseded; the
   image and the fresh states ride the operand stack while the next sets
   are computed from them. *)
let fixpoint man ?(bad = fun _ -> false) ?(on_frontier = ignore) ~image init =
  let reached = ref init and frontier = ref init in
  M.protect man !reached;
  M.protect man !frontier;
  Fun.protect
    ~finally:(fun () ->
      M.release man !reached;
      M.release man !frontier)
  @@ fun () ->
  let rec loop steps =
    on_frontier !frontier;
    if !frontier = M.zero then Reached { reached = !reached; steps }
    else if bad !frontier then Met_bad
    else begin
      let img = image !frontier in
      M.stack_push man img;
      let fresh = O.bdiff man img !reached in
      M.stack_push man fresh;
      let reached' = O.bor man !reached fresh in
      M.stack_drop man 2;
      M.protect man reached';
      M.protect man fresh;
      M.release man !reached;
      M.release man !frontier;
      reached := reached';
      frontier := fresh;
      loop (steps + 1)
    end
  in
  loop 0

let reachable (sym : S.t) =
  let man = sym.S.man in
  M.with_roots man @@ fun rs ->
  let parts = Partition.of_functions man (S.transition_parts sym) in
  List.iter (fun f -> ignore (M.Roots.add rs f : int)) parts;
  let image =
    Image.forward man ~strategy:(Image.Partitioned Quantify.Greedy) ~parts
      ~quantify:(sym.S.input_vars @ sym.S.state_vars)
      ~rename:(S.ns_to_cs sym)
  in
  match fixpoint man ~image sym.S.init_cube with
  | Reached { reached; steps } -> (reached, steps)
  | Met_bad -> assert false (* no [bad] predicate *)

let count_states (sym : S.t) set =
  O.sat_count sym.man set (List.length sym.S.state_vars)
