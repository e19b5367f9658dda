(* Exploring the Complete Sequential Flexibility.

   The CSF is *all* legal replacement behaviours for the split-out
   latches. This example makes that tangible on a small circuit:

   - it computes the CSF of a 2-latch split of a 4-bit binary counter,
   - minimizes it (the subset construction is canonical but not minimal),
   - finds a concrete behaviour allowed by the CSF that the original latch
     bank does NOT exhibit (a witness of strict flexibility), and
   - writes DOT renderings of both X_P and the minimized CSF.

   Run with:  dune exec examples/flexibility_explorer.exe *)

module E = Equation
module A = Fsa.Automaton
module L = Fsa.Language

let () =
  let net = Circuits.Generators.counter 4 in
  let x_latches = [ "c1"; "c2" ] in
  Format.printf "Circuit: %a; splitting {%s}@.@."
    Network.Netlist.pp_stats net
    (String.concat ", " x_latches);
  let sp, p = E.Split.problem net ~x_latches in
  let x, _ = E.Partitioned.solve_arena p in
  let csf, _ = E.Csf.of_arena p x in
  Format.printf "CSF: %s@." (Fsa.Print.summary csf);

  (* minimize — the canonical subset automaton is rarely minimal *)
  let completed = Fsa.Ops.complete csf in
  let minimized = Fsa.Minimize.minimize completed in
  Format.printf "after completion + minimization: %s@.@."
    (Fsa.Print.summary minimized);

  (* the particular solution: the latch bank that was split out *)
  let xp = E.Split.particular_solution p sp in
  Format.printf "latch bank X_P: %s@." (Fsa.Print.summary xp);
  Format.printf "X_P ⊆ CSF: %b@.@." (L.subset xp csf);

  (* strict flexibility: a word the CSF allows but the latch bank never
     produces *)
  (match L.counterexample csf xp with
   | None ->
     Format.printf "No extra flexibility: the latch bank is the unique \
                    implementation.@."
   | Some word ->
     Format.printf
       "A behaviour allowed by the CSF but not exhibited by the latch bank@.\
        (symbols are (u,v) assignments; u = next-state command, v = state):@.";
     let man = p.E.Problem.man in
     List.iteri
       (fun t sym ->
         Format.printf "  step %d: %a@." t (Bdd.Print.pp man) sym)
       word);

  (* DOT output *)
  let dump name auto =
    let path = Filename.temp_file name ".dot" in
    let oc = open_out path in
    output_string oc (Fsa.Print.to_dot ~name auto);
    close_out oc;
    Format.printf "wrote %s@." path
  in
  dump "csf_min" minimized;
  dump "latch_bank" xp
