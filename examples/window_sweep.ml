(* Flexibility profiling: which latches of a circuit have the most
   sequential flexibility?

   For every pair of latches, split the pair out, compute its CSF with the
   partitioned flow, and report:
   - the CSF size (states),
   - whether the flexibility is strict (the CSF allows more than the
     original latch pair does),
   - the size of a minimized re-implementation extracted from the CSF.

   This is the downstream workflow the paper's conclusion points at: the
   CSF is the search space in which a better implementation of each window
   is to be found.

   Run with:  dune exec examples/window_sweep.exe [-- <circuit>]
   (circuit: gray | counter | lfsr | vending; default gray) *)

module E = Equation
module N = Network.Netlist

let build = function
  | "gray" -> Circuits.Generators.gray_counter 4
  | "counter" -> Circuits.Generators.counter 4
  | "lfsr" -> Circuits.Generators.lfsr 4
  | "vending" -> Circuits.Generators.vending ()
  | other -> failwith ("unknown circuit: " ^ other)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "gray" in
  let net = build name in
  Format.printf "Circuit: %a@.@." N.pp_stats net;
  let latches = List.map (fun id -> N.net_name net id) net.N.latches in
  Format.printf "%-14s %10s %8s %14s@." "window" "CSF" "strict?" "reimpl.states";
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  List.iter
    (fun (a, b) ->
      let x_latches = [ a; b ] in
      let sp, p = E.Split.problem net ~x_latches in
      let x, _ = E.Partitioned.solve_arena p in
      let csf, _ = E.Csf.of_arena p x in
      let strict =
        not
          (Fsa.Language.subset csf (E.Split.particular_solution p sp))
      in
      let reimpl =
        match E.Extract.resynthesize p csf with
        | Some (_, m) -> string_of_int (E.Machine.num_states m)
        | None -> "-"
      in
      Format.printf "%-14s %10d %8b %14s@."
        (a ^ "," ^ b)
        (Fsa.Automaton.num_states csf)
        strict reimpl)
    (pairs latches);
  Format.printf
    "@.(strict = the CSF admits behaviours beyond the original latches;@.\
    \ reimpl = states of a minimized Moore machine extracted from the CSF)@."
