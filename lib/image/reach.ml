module M = Bdd.Manager
module O = Bdd.Ops
module S = Network.Symbolic

type outcome = Reached of { reached : int; steps : int } | Met_bad

(* The reached set and the frontier ride the operand stack, and each step
   replaces both pins at once, so the previous iterate becomes collectable
   the moment it is superseded; the image and the fresh states sit above
   them while the next sets are computed from them. Like the kernel's
   recursions, an exception leaves the pins for the next
   [reset_op_stack]. *)
let fixpoint man ?(bad = fun _ -> false) ?(on_frontier = ignore) ~image init =
  M.stack_push man init;
  M.stack_push man init;
  let rec loop reached frontier steps =
    on_frontier frontier;
    if frontier = M.zero then Reached { reached; steps }
    else if bad frontier then Met_bad
    else begin
      let img = image frontier in
      M.stack_push man img;
      let fresh = O.bdiff man img reached in
      M.stack_push man fresh;
      let reached' = O.bor man reached fresh in
      (* the image, the fresh states and both old pins go, the new sets
         are pinned: no allocation in between *)
      M.stack_drop man 4;
      M.stack_push man reached';
      M.stack_push man fresh;
      loop reached' fresh (steps + 1)
    end
  in
  let outcome = loop init init 0 in
  M.stack_drop man 2;
  outcome

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
