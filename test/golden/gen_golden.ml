(* Golden-file generator: compute the CSF of a named small instance with
   the default (clustered) partitioned flow, extract a Moore sub-solution
   with the deterministic [First] heuristic, and print it as KISS2. The
   output is fully deterministic — BDD ids, subset enumeration order, ISOP
   covers and the extraction walk are all derived from the fixed variable
   allocation — so any diff against the committed .kiss file is a real
   behaviour change of the solver (dune promote accepts intentional ones). *)

let instances =
  [ ("counter3", (Circuits.Generators.counter 3, [ "c1"; "c2" ]));
    ("shift3", (Circuits.Generators.shift_register 3, [ "s1"; "s2" ]));
    ("johnson3", (Circuits.Generators.johnson 3, [ "j1"; "j2" ]));
    ("traffic", (Circuits.Generators.traffic_light (), [ "s1" ])) ]

let () =
  let name = Sys.argv.(1) in
  let net, x_latches =
    match List.assoc_opt name instances with
    | Some i -> i
    | None -> failwith ("unknown golden instance: " ^ name)
  in
  let _, p = Equation.Split.problem net ~x_latches in
  let arena, _ = Equation.Partitioned.solve_arena p in
  let csf, _ = Equation.Csf.of_arena p arena in
  match Equation.Extract.moore_sub_solution ~heuristic:Equation.Extract.First p csf with
  | None -> failwith ("no Moore sub-solution for " ^ name)
  | Some machine -> print_string (Equation.Kiss.to_kiss2 machine)
