(* Tests for the sub-solution machinery: Moore machines, extraction from the
   CSF, minimization, circuit synthesis and the closed-loop certification
   F × X' ≡ S — the paper's "future work" extension. *)

module M = Bdd.Manager
module O = Bdd.Ops
module E = Equation
module N = Network.Netlist
module G = Circuits.Generators

let instances () =
  [ ("counter4", G.counter 4, [ "c1"; "c2" ]);
    ("gray4", G.gray_counter 4, [ "g1"; "g2" ]);
    ("lfsr4", G.lfsr 4, [ "r1"; "r2" ]);
    ("traffic", G.traffic_light (), [ "s0" ]);
    ("shift4", G.shift_register 4, [ "s1"; "s2" ]);
    ("rnd", G.random_logic ~seed:3 ~inputs:3 ~outputs:2 ~latches:5 ~levels:3 (),
     [ "x3"; "x4" ]) ]

let csf_of = Helpers.csf_of

(* --- Machine ------------------------------------------------------------------ *)

let two_state_machine () =
  (* u = var 0, v = var 1; outputs v=0 in state 0, v=1 in state 1;
     input u chooses the next state *)
  let man = M.create () in
  let u = M.new_var ~name:"u" man and v = M.new_var ~name:"v" man in
  let m =
    E.Machine.make man ~u_vars:[ u ] ~v_vars:[ v ] ~initial:0
      ~outputs:[| O.nvar_bdd man v; O.var_bdd man v |]
      ~next:
        [| [ (O.var_bdd man u, 1); (O.nvar_bdd man u, 0) ];
           [ (M.one, 0) ] |]
  in
  (man, u, v, m)

let test_machine_validation () =
  let man = M.create () in
  let u = M.new_var man and v = M.new_var man in
  let bad_output () =
    ignore
      (E.Machine.make man ~u_vars:[ u ] ~v_vars:[ v ] ~initial:0
         ~outputs:[| M.one |] (* not a total assignment *)
         ~next:[| [ (M.one, 0) ] |]
        : E.Machine.t)
  in
  Alcotest.check_raises "non-assignment output"
    (Invalid_argument "Machine.make: output is not a total v assignment")
    bad_output;
  let uncovered () =
    ignore
      (E.Machine.make man ~u_vars:[ u ] ~v_vars:[ v ] ~initial:0
         ~outputs:[| O.var_bdd man v |]
         ~next:[| [ (O.var_bdd man u, 0) ] |]
        : E.Machine.t)
  in
  Alcotest.check_raises "input space not covered"
    (Invalid_argument "Machine.make: u guards do not cover the input space")
    uncovered

let test_machine_step_and_outputs () =
  let _, _, _, m = two_state_machine () in
  Alcotest.(check (list bool)) "state 0 output" [ false ]
    (E.Machine.output_bits m 0);
  Alcotest.(check (list bool)) "state 1 output" [ true ]
    (E.Machine.output_bits m 1);
  Alcotest.(check int) "step on u=1" 1 (E.Machine.step m 0 (fun _ -> true));
  Alcotest.(check int) "step on u=0" 0 (E.Machine.step m 0 (fun _ -> false));
  Alcotest.(check int) "state 1 always back" 0
    (E.Machine.step m 1 (fun _ -> true))

let test_machine_automaton_consistency () =
  let man, u, v, m = two_state_machine () in
  let auto = E.Machine.to_automaton m in
  (* simulate the machine on random input words and check the
     corresponding (u,v) word is accepted *)
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 50 do
    let len = Random.State.int rng 6 in
    let word = ref [] in
    let s = ref m.E.Machine.initial in
    for _ = 1 to len do
      let bit = Random.State.bool rng in
      let out = List.hd (E.Machine.output_bits m !s) in
      word := O.cube_of_literals man [ (u, bit); (v, out) ] :: !word;
      s := E.Machine.step m !s (fun _ -> bit)
    done;
    Alcotest.(check bool) "trace accepted" true
      (Reference.Language.accepts auto (List.rev !word))
  done

let test_machine_netlist_simulation () =
  (* the synthesized circuit must implement the machine exactly *)
  List.iter
    (fun (name, net, xl) ->
      let _, p, csf = csf_of net xl in
      ignore p;
      match E.Extract.moore_sub_solution p csf with
      | None -> Alcotest.fail (name ^ ": expected a machine")
      | Some m ->
        let xnet = E.Machine.to_netlist m in
        let rng = Random.State.make [| 21 |] in
        let nu = List.length m.E.Machine.u_vars in
        let st = ref (N.initial_state xnet) in
        let ms = ref m.E.Machine.initial in
        for _ = 1 to 100 do
          let inputs = Array.init nu (fun _ -> Random.State.bool rng) in
          let out, st' = N.step xnet !st inputs in
          (* netlist outputs = machine outputs of the CURRENT state *)
          Alcotest.(check (list bool))
            (name ^ ": outputs agree")
            (E.Machine.output_bits m !ms)
            (Array.to_list out);
          let u_assign w =
            let rec idx k = function
              | [] -> assert false
              | x :: rest -> if x = w then k else idx (k + 1) rest
            in
            inputs.(idx 0 m.E.Machine.u_vars)
          in
          ms := E.Machine.step m !ms u_assign;
          st := st'
        done)
    [ List.hd (instances ()) ]

let test_machine_minimize () =
  List.iter
    (fun (name, net, xl) ->
      let _, p, csf = csf_of net xl in
      ignore p;
      match E.Extract.moore_sub_solution p csf with
      | None -> Alcotest.fail (name ^ ": expected a machine")
      | Some m ->
        let mm = E.Machine.minimize m in
        Alcotest.(check bool) (name ^ ": minimize shrinks or keeps") true
          (E.Machine.num_states mm <= E.Machine.num_states m);
        Alcotest.(check bool) (name ^ ": same behaviour") true
          (Fsa.Language.equivalent
             (E.Machine.to_automaton m)
             (E.Machine.to_automaton mm));
        (* idempotence *)
        Alcotest.(check int) (name ^ ": idempotent")
          (E.Machine.num_states mm)
          (E.Machine.num_states (E.Machine.minimize mm)))
    (instances ())

(* --- Extraction ----------------------------------------------------------------- *)

let test_extraction_contained_and_certified () =
  List.iter
    (fun (name, net, xl) ->
      let _, p, csf = csf_of net xl in
      match E.Extract.resynthesize p csf with
      | None -> Alcotest.fail (name ^ ": no machine")
      | Some (xnet, m) ->
        Alcotest.(check bool) (name ^ ": behaviour in CSF") true
          (Fsa.Language.subset (E.Machine.to_automaton m) csf);
        Alcotest.(check bool) (name ^ ": F x X' = S") true
          (E.Verify.composition_with_machine p m);
        Alcotest.(check int) (name ^ ": netlist interface")
          (List.length m.E.Machine.u_vars)
          (N.num_inputs xnet))
    (instances ())

let test_extraction_empty_csf () =
  let _, p = E.Split.problem (G.counter 3) ~x_latches:[ "c0" ] in
  let empty =
    Fsa.Automaton.empty p.E.Problem.man
      ~alphabet:(p.E.Problem.u_vars @ p.E.Problem.v_vars)
  in
  Alcotest.(check bool) "no machine from empty CSF" true
    (E.Extract.moore_sub_solution p empty = None)

let test_extraction_no_moore_choice () =
  (* an automaton that forces v = u at every step admits no Moore output *)
  let _, p = E.Split.problem (G.counter 3) ~x_latches:[ "c0" ] in
  let man = p.E.Problem.man in
  let u = List.hd p.E.Problem.u_vars and v = List.hd p.E.Problem.v_vars in
  let eq = O.bxnor man (O.var_bdd man u) (O.var_bdd man v) in
  let t =
    Fsa.Automaton.make man ~alphabet:[ u; v ] ~initial:0
      ~accepting:[| true |] ~edges:[| [ (eq, 0) ] |] ()
  in
  Alcotest.(check bool) "no Moore sub-solution" true
    (E.Extract.moore_sub_solution p t = None)

let test_extraction_viability_cascades () =
  (* Moore viability dies backwards over two rounds: 3 forces v = u, so it
     admits no Moore output; then 1, whose only successor is 3; then v=0
     out of 0, which leads to 1. Through v=1, 0 reaches 2, which any
     output keeps. Only an admissible set recomputed after the cascade
     steers the walk away from v=0, its first minterm while 1 and 3 still
     count as viable. *)
  let _, p = E.Split.problem (G.counter 3) ~x_latches:[ "c0" ] in
  let man = p.E.Problem.man in
  let u = List.hd p.E.Problem.u_vars and v = List.hd p.E.Problem.v_vars in
  let eq = O.bxnor man (O.var_bdd man u) (O.var_bdd man v) in
  let t =
    Fsa.Automaton.make man ~alphabet:[ u; v ] ~initial:0
      ~accepting:[| true; true; true; true |]
      ~edges:
        [| [ (O.nvar_bdd man v, 1); (O.var_bdd man v, 2) ];
           [ (M.one, 3) ];
           [ (M.one, 2) ];
           [ (eq, 3) ] |]
      ()
  in
  match E.Extract.moore_sub_solution p t with
  | None -> Alcotest.fail "state 0 is viable through v=1"
  | Some m ->
    Alcotest.(check (list bool)) "the walk picks v=1" [ true ]
      (E.Machine.output_bits m m.E.Machine.initial);
    Alcotest.(check int) "states 0 and 2" 2 (E.Machine.num_states m);
    Alcotest.(check bool) "behaviour in the automaton" true
      (Fsa.Language.subset (E.Machine.to_automaton m) t)

(* A latch bank starting from the wrong state must fail check (2), and so
   must the same bank as a [Machine.t] (state [k] outputs the v cube of
   [k], and every u cube leads to the state it encodes) when it is
   certified as an extracted machine. *)
let test_composition_rejects_wrong_bank () =
  let sp, p = E.Split.problem (G.lfsr 4) ~x_latches:[ "r0"; "r1" ] in
  let man = p.E.Problem.man in
  let u_vars = p.E.Problem.u_vars and v_vars = p.E.Problem.v_vars in
  let n = 1 lsl List.length v_vars in
  let cube vars k =
    O.cube_of_literals man
      (List.mapi (fun j v -> (v, k land (1 lsl j) <> 0)) vars)
  in
  let code bits =
    List.fold_left (fun k (j, b) -> if b then k lor (1 lsl j) else k) 0
      (List.mapi (fun j b -> (j, b)) bits)
  in
  let bank x_init =
    M.with_frozen man @@ fun () ->
    E.Machine.make man ~u_vars ~v_vars ~initial:(code x_init)
      ~outputs:(Array.init n (cube v_vars))
      ~next:(Array.make n (List.init n (fun d -> (cube u_vars d, d))))
  in
  List.iter
    (fun (label, x_init, expected) ->
      Alcotest.(check bool) (label ^ ": check (2)") expected
        (E.Verify.composition_equals_spec p { sp with E.Split.x_init });
      Alcotest.(check bool) (label ^ ": as a machine") expected
        (E.Verify.composition_with_machine p (bank x_init)))
    [ ("correct bank", sp.E.Split.x_init, true);
      ("mis-initialized bank", List.map not sp.E.Split.x_init, false) ]

let () =
  Alcotest.run "extract"
    [ ( "machine",
        [ Alcotest.test_case "validation" `Quick test_machine_validation;
          Alcotest.test_case "step + outputs" `Quick
            test_machine_step_and_outputs;
          Alcotest.test_case "automaton consistency" `Quick
            test_machine_automaton_consistency;
          Alcotest.test_case "netlist simulation" `Quick
            test_machine_netlist_simulation;
          Alcotest.test_case "minimize" `Quick test_machine_minimize ] );
      ( "extraction",
        [ Alcotest.test_case "contained + certified" `Slow
            test_extraction_contained_and_certified;
          Alcotest.test_case "empty CSF" `Quick test_extraction_empty_csf;
          Alcotest.test_case "no Moore choice" `Quick
            test_extraction_no_moore_choice;
          Alcotest.test_case "viability cascades" `Quick
            test_extraction_viability_cascades ] );
      ( "io+verify",
        [ Alcotest.test_case "wrong bank rejected" `Quick
            test_composition_rejects_wrong_bank ] ) ]
