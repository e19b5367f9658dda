module Problem = Equation.Problem
(* [Ops] below is Reference.Ops (Determinize, Complement, Support,
   Product); [F] is Fsa.Ops (Complete, trim) *)
module F = Fsa.Ops
module S = Network.Symbolic

let f_output_vars (p : Problem.t) =
  let s_out_names = List.map fst p.Problem.s_sym.S.net.Network.Netlist.outputs in
  let o_by_name = List.combine s_out_names p.Problem.o_vars in
  let u_by_name = List.combine p.Problem.u_names p.Problem.u_vars in
  List.map
    (fun (name, _) ->
      match List.assoc_opt name o_by_name with
      | Some v -> v
      | None -> List.assoc name u_by_name)
    p.Problem.f_sym.S.net.Network.Netlist.outputs

let solve ?(complete_f = true) (p : Problem.t) =
  let man = p.Problem.man in
  let s_auto =
    Fsa.From_network.of_netlist man ~input_vars:p.Problem.i_vars
      ~output_vars:p.Problem.o_vars p.Problem.s_sym.S.net
  in
  let f_auto =
    Fsa.From_network.of_netlist man
      ~input_vars:p.Problem.f_sym.S.input_vars
      ~output_vars:(f_output_vars p) p.Problem.f_sym.S.net
  in
  let full_support =
    p.Problem.i_vars @ p.Problem.v_vars @ p.Problem.u_vars @ p.Problem.o_vars
  in
  let x = F.complete s_auto in
  let x = Ops.determinize x in
  let x = Ops.complement (F.complete x) in
  let x = Ops.change_support x full_support in
  let f_for_product = if complete_f then F.complete f_auto else f_auto in
  let x = Ops.product f_for_product x in
  let x = Ops.change_support x (Problem.alphabet p) in
  let x = Ops.determinize x in
  let x = F.complete x in
  let x = Ops.complement x in
  F.trim x
