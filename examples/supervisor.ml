(* Discrete-control flavour (one of the applications the paper's intro
   cites): synthesize the most general controller X for a plant F against a
   specification S, with the Figure-1 topology

        i  -->  [ F (plant) ]  --> o
                  |        ^
                u |        | v
                  v        |
                [ X (controller) ]

   Plant: a heater with one state bit [temp] (initially cold). The
   controller drives [heat] (= v); the plant reports [is_hot] (= u) and
   answers an external [demand] with [ok] = demand & temp.

   Specification: from the second cycle on, every demand must be answered
   ([ok] = demand after a one-cycle warm-up; nothing is promised in the
   first cycle).

   The most general controller must heat from the very first cycle and keep
   heating — but it is free in how it uses (or ignores) the sensor, and
   that freedom is exactly the flexibility the CSF captures.

   Run with:  dune exec examples/supervisor.exe *)

module N = Network.Netlist
module E = Network.Expr
module Eq = Equation

let plant () =
  let b = N.create "heater_plant" in
  let demand = N.add_input b "demand" in
  let heat = N.add_input b "heat" in
  let temp = N.add_latch b ~name:"temp" ~init:false () in
  N.set_latch_input b temp heat;
  let ok = N.add_node b ~name:"ok" (E.And (E.Var 0, E.Var 1)) [| demand; temp |] in
  N.add_output b "ok" ok;
  let is_hot = N.add_node b ~name:"is_hot" (E.Var 0) [| temp |] in
  N.add_output b "is_hot" is_hot;
  N.freeze b

let spec () =
  let b = N.create "service_spec" in
  let demand = N.add_input b "demand" in
  let started = N.add_latch b ~name:"started" ~init:false () in
  let always_on = N.add_node b ~name:"on" (E.Const true) [||] in
  N.set_latch_input b started always_on;
  let ok =
    N.add_node b ~name:"ok" (E.And (E.Var 0, E.Var 1)) [| demand; started |]
  in
  N.add_output b "ok" ok;
  N.freeze b

let () =
  let f = plant () and s = spec () in
  Format.printf "Plant F: %a@." N.pp_stats f;
  Format.printf "Spec  S: %a@.@." N.pp_stats s;
  let p =
    Eq.Problem.make ~f ~s ~u_names:[ "is_hot" ] ~v_names:[ "heat" ] ()
  in
  (* the runtime counts the image computations *)
  let rt = Eq.Runtime.create () in
  let x, subset_states = Eq.Partitioned.solve_arena ~runtime:rt p in
  Format.printf "Most general prefix-closed solution: %s@."
    (Fsa.Print.summary x);
  Format.printf "  (%d subset states, %d image computations)@.@."
    subset_states (Eq.Runtime.images rt);
  let csf, _ = Eq.Csf.of_arena p x in
  if Fsa.Automaton.is_empty_language csf then
    Format.printf "No controller exists.@."
  else begin
    Format.printf "Controller CSF (alphabet u=is_hot, v=heat):@.%a@."
      Fsa.Print.pp csf;
    (* sanity: the obvious controller "always heat, ignore the sensor" must
       be contained in the CSF. As an automaton over (is_hot, heat): a
       single accepting state that loops on heat=1, any is_hot. *)
    let man = p.Eq.Problem.man in
    let heat_var = List.hd p.Eq.Problem.v_vars in
    let always_heat =
      Fsa.Automaton.make man
        ~alphabet:(p.Eq.Problem.u_vars @ p.Eq.Problem.v_vars)
        ~initial:0 ~accepting:[| true |]
        ~edges:[| [ (Bdd.Ops.var_bdd man heat_var, 0) ] |]
        ()
    in
    Format.printf "@.\"always heat\" contained in the CSF: %b@."
      (Fsa.Language.subset always_heat csf);
    (* and the lazy controller that never heats must NOT be *)
    let never_heat =
      Fsa.Automaton.make man
        ~alphabet:(p.Eq.Problem.u_vars @ p.Eq.Problem.v_vars)
        ~initial:0 ~accepting:[| true |]
        ~edges:[| [ (Bdd.Ops.nvar_bdd man heat_var, 0) ] |]
        ()
    in
    Format.printf "\"never heat\" contained in the CSF: %b@."
      (Fsa.Language.subset never_heat csf)
  end;

  (* generalized topology (the paper's footnote 6): let the controller also
     observe the external demand — the flexibility can only grow *)
  let p_obs =
    Eq.Problem.make ~observed_inputs:[ "demand" ] ~f:(plant ()) ~s:(spec ())
      ~u_names:[ "is_hot" ] ~v_names:[ "heat" ] ()
  in
  let x_obs, _ = Eq.Partitioned.solve_arena p_obs in
  let csf_obs, _ = Eq.Csf.of_arena p_obs x_obs in
  Format.printf
    "@.With the controller observing `demand` as well (footnote 6):@.";
  Format.printf "CSF: %s (alphabet %s)@."
    (Fsa.Print.summary csf_obs)
    (String.concat ", "
       (List.map
          (Bdd.Manager.var_name p_obs.Eq.Problem.man)
          csf_obs.Fsa.Automaton.alphabet));
  match Eq.Extract.resynthesize p_obs csf_obs with
  | None -> Format.printf "no implementable observing controller@."
  | Some (xnet, machine) ->
    Format.printf
      "an observing controller was extracted and certified: %a (F x X' = S: %b)@."
      Network.Netlist.pp_stats xnet
      (Eq.Verify.composition_with_machine p_obs machine)
