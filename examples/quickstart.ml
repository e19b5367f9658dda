(* Quickstart: the paper's running example (Figures 2 and 3).

   Builds the two-latch circuit of Figure 3 —
     T1(i, cs) = i & cs2        (next state of latch 1)
     T2(i, cs) = !i | cs1       (next state of latch 2)
     o         = cs1 ^ cs2      (the output; the paper's formula is
                                 OCR-garbled, this is the reading consistent
                                 with the transition labels)
   — extracts its partitioned representation {T_k}, {O_j}, derives the
   corresponding automaton over the (i, o) alphabet, completes it with the
   DC state, and prints everything.

   Run with:  dune exec examples/quickstart.exe *)

module N = Network.Netlist
module E = Network.Expr
module M = Bdd.Manager
module O = Bdd.Ops

let fig3_circuit () =
  let b = N.create "fig3" in
  let i = N.add_input b "i" in
  let cs1 = N.add_latch b ~name:"cs1" ~init:false () in
  let cs2 = N.add_latch b ~name:"cs2" ~init:false () in
  let t1 = N.add_node b ~name:"T1" (E.And (E.Var 0, E.Var 1)) [| i; cs2 |] in
  let t2 =
    N.add_node b ~name:"T2" (E.Or (E.Not (E.Var 0), E.Var 1)) [| i; cs1 |]
  in
  N.set_latch_input b cs1 t1;
  N.set_latch_input b cs2 t2;
  let o = N.add_node b ~name:"o" (E.Xor (E.Var 0, E.Var 1)) [| cs1; cs2 |] in
  N.add_output b "o" o;
  N.freeze b

let () =
  let net = fig3_circuit () in
  Format.printf "Figure 2-style network:@.  %a@.@." N.pp_stats net;

  (* the partitioned representation: {T_k(i,cs)} and {O_j(i,cs)} as BDDs *)
  let man = M.create () in
  let sym = Network.Symbolic.of_netlist man net in
  Format.printf "Partitioned representation (the paper's central object):@.";
  List.iteri
    (fun k fn ->
      Format.printf "  T%d(i,cs) = %a@." (k + 1) (Bdd.Print.pp man) fn)
    sym.Network.Symbolic.next_fns;
  List.iter
    (fun (name, fn) ->
      Format.printf "  O_%s(i,cs) = %a@." name (Bdd.Print.pp man) fn)
    sym.Network.Symbolic.output_fns;
  Format.printf "@.";

  (* the monolithic relations the partitioned method avoids, for contrast *)
  let t_parts =
    Img.Partition.of_functions man (Network.Symbolic.transition_parts sym)
  in
  let t_mono = Img.Partition.monolithic man t_parts in
  Format.printf
    "Monolithic transition relation T(i,cs,ns) (%d BDD nodes):@.  %a@.@."
    (O.size man t_mono) (Bdd.Print.pp man) t_mono;

  (* reachable states = the accepting states of the automaton (paper 2) *)
  let reached, _ = Img.Reach.reachable sym in
  Format.printf "Reachable states: %.0f of %d@.@."
    (Img.Reach.count_states sym reached)
    (1 lsl N.num_latches net);

  (* the automaton of the network over the (i, o) alphabet *)
  let i_vars = sym.Network.Symbolic.input_vars in
  let o_vars = [ M.new_var ~name:"o" man ] in
  let auto = Fsa.From_network.of_netlist man ~input_vars:i_vars ~output_vars:o_vars net in
  Format.printf "Automaton of the network (states labeled cs1cs2):@.%a@."
    Fsa.Print.pp auto;
  Format.printf "This automaton is %s.@.@." (Fsa.Print.summary auto);

  (* completion: add the DC state, the paper's Figure 3 right-hand side *)
  let completed = Fsa.Ops.complete auto in
  Format.printf "After Complete (undefined (i,o) combinations go to DC):@.%a@."
    Fsa.Print.pp completed;
  Format.printf "Completed: %s.@.@." (Fsa.Print.summary completed);

  (* DOT export for the curious *)
  let dot = Fsa.Print.to_dot ~name:"fig3" completed in
  let path = Filename.temp_file "fig3" ".dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Format.printf "DOT graph written to %s@." path
