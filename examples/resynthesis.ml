(* Closing the sequential-synthesis loop (the paper's "outstanding problem
   for future research": choosing a sub-solution of the CSF).

   1. split two latches out of a circuit,
   2. compute the CSF of the hole with the partitioned flow,
   3. extract an implementable Moore sub-solution (each state takes the
      first of its admissible outputs) and minimize it,
   4. synthesize it back into a circuit (binary state encoding), and
   5. certify the result twice:
        - language containment of the machine in the CSF, and
        - full sequential equivalence of  F × X'  against  S.

   Run with:  dune exec examples/resynthesis.exe *)

module E = Equation
module N = Network.Netlist

let () =
  let net = Circuits.Generators.gray_counter 4 in
  let x_latches = [ "g1"; "g2" ] in
  Format.printf "Circuit: %a; splitting {%s}@.@." N.pp_stats net
    (String.concat ", " x_latches);
  let _sp, p = E.Split.problem net ~x_latches in
  let x, _ = E.Partitioned.solve_arena p in
  let csf, _ = E.Csf.of_arena p x in
  Format.printf "CSF: %s@.@." (Fsa.Print.summary csf);
  (match E.Extract.resynthesize p csf with
   | None -> Format.printf "no Moore sub-solution found@."
   | Some (xnet, machine) ->
     Format.printf "extracted machine with %d states -> %a@."
       (E.Machine.num_states machine)
       N.pp_stats xnet;
     let contained =
       Fsa.Language.subset (E.Machine.to_automaton machine) csf
     in
     let equivalent = E.Verify.composition_with_machine p machine in
     Format.printf "  behaviour ⊆ CSF: %b@." contained;
     Format.printf "  F × X' ≡ S     : %b@.@." equivalent);
  (* the extracted machine often differs from the original latch bank —
     that is the sequential flexibility being exercised *)
  match E.Extract.moore_sub_solution p csf with
  | None -> ()
  | Some m ->
    let bank = E.Split.particular_solution p _sp in
    let same =
      Fsa.Language.equivalent (E.Machine.to_automaton m) bank
    in
    Format.printf
      "extracted machine behaves exactly like the original latch bank: %b@."
      same
