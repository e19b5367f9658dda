(* Golden-file generator. A KISS2 instance computes the CSF of a named
   small instance with the default (clustered) partitioned flow, extracts
   a Moore sub-solution (each state takes its first admissible output), and
   prints it as KISS2. An .aut instance prints an automaton in the .aut
   format: the CSF itself, or a small hand-built nondeterministic one. The
   output is fully deterministic — BDD ids, subset enumeration order, ISOP
   covers and the extraction walk are all derived from the fixed variable
   allocation — so any diff against the committed file is a real
   behaviour change of the solver or the writers (dune promote accepts
   intentional ones). *)

let instances =
  [ ("counter3", (Circuits.Generators.counter 3, [ "c1"; "c2" ]));
    ("shift3", (Circuits.Generators.shift_register 3, [ "s1"; "s2" ]));
    ("johnson3", (Circuits.Generators.johnson 3, [ "j1"; "j2" ]));
    ("traffic", (Circuits.Generators.traffic_light (), [ "s1" ])) ]

let csf net x_latches =
  let _, p = Equation.Split.problem net ~x_latches in
  let x, _ = Equation.Partitioned.solve_arena p in
  (p, fst (Equation.Csf.of_arena p x))

(* guesses when the last-but-one symbol has a = 1 (over alphabet {a, b}) *)
let nondet () =
  let man = Bdd.Manager.create () in
  let a = Bdd.Manager.new_var ~name:"a" man in
  ignore (Bdd.Manager.new_var ~name:"b" man : int);
  Fsa.Automaton.make man ~alphabet:[ a ] ~initial:0
    ~accepting:[| false; false; true |]
    ~edges:
      [| [ (Bdd.Manager.one, 0); (Bdd.Ops.var_bdd man a, 1) ];
         [ (Bdd.Manager.one, 2) ];
         [] |]
    ()

let () =
  match Sys.argv.(1) with
  | "counter3_c1.aut" ->
    let _, t = csf (Circuits.Generators.counter 3) [ "c1" ] in
    print_string (Fsa.Aut.to_string t)
  | "nondet.aut" -> print_string (Fsa.Aut.to_string ~name:"nd" (nondet ()))
  | name ->
    let net, x_latches =
      match List.assoc_opt name instances with
      | Some i -> i
      | None -> failwith ("unknown golden instance: " ^ name)
    in
    let p, csf = csf net x_latches in
    (match Equation.Extract.moore_sub_solution p csf with
     | None -> failwith ("no Moore sub-solution for " ^ name)
     | Some machine -> print_string (Equation.Kiss.to_kiss2 machine))
