(* Tests for the network library: expressions, netlist construction and
   simulation, BLIF round-trips, and consistency of the symbolic
   (partitioned BDD) extraction with explicit simulation. *)

module E = Network.Expr
module N = Network.Netlist
module B = Network.Blif
module S = Network.Symbolic

(* --- Expr ----------------------------------------------------------------- *)

let test_expr_eval () =
  let e = E.Ite (E.Var 0, E.Xor (E.Var 1, E.Const true), E.And (E.Var 1, E.Var 2)) in
  let env values k = List.nth values k in
  Alcotest.(check bool) "ite true branch" false
    (E.eval (env [ true; true; false ]) e);
  Alcotest.(check bool) "ite false branch" true
    (E.eval (env [ false; true; true ]) e)

let test_expr_cover () =
  (* cover rows: 1-0 -> 1 ; 011 -> 1 *)
  let e = E.of_cover ~ncols:3 [ ("1-0", true); ("011", true) ] in
  let eval bits = E.eval (fun k -> List.nth bits k) e in
  Alcotest.(check bool) "row1 matches" true (eval [ true; false; false ]);
  Alcotest.(check bool) "row2 matches" true (eval [ false; true; true ]);
  Alcotest.(check bool) "no match" false (eval [ false; false; false ])

let test_expr_cover_complement () =
  let e = E.of_cover ~ncols:1 [ ("1", false) ] in
  Alcotest.(check bool) "0 phase" true (E.eval (fun _ -> false) e);
  Alcotest.(check bool) "0 phase on 1" false (E.eval (fun _ -> true) e)

let test_expr_cover_empty () =
  let e = E.of_cover ~ncols:2 [] in
  Alcotest.(check bool) "empty cover is false" false
    (E.eval (fun _ -> true) e)

(* --- Netlist -------------------------------------------------------------- *)

let toggle_net () =
  (* one latch toggling under input [en]; output is the latch *)
  let b = N.create "toggle" in
  let en = N.add_input b "en" in
  let l = N.add_latch b ~name:"q" ~init:false () in
  let nxt = N.add_node b ~name:"nxt" (E.Xor (E.Var 0, E.Var 1)) [| en; l |] in
  N.set_latch_input b l nxt;
  N.add_output b "q" l;
  N.freeze b

let test_netlist_counts () =
  let net = toggle_net () in
  Alcotest.(check int) "inputs" 1 (N.num_inputs net);
  Alcotest.(check int) "outputs" 1 (N.num_outputs net);
  Alcotest.(check int) "latches" 1 (N.num_latches net);
  Alcotest.(check string) "nodes" "toggle: 1 inputs, 1 outputs, 1 latches, 1 nodes"
    (Format.asprintf "%a" N.pp_stats net)

let test_netlist_step () =
  let net = toggle_net () in
  let st = N.initial_state net in
  let out, st1 = N.step net st [| true |] in
  Alcotest.(check bool) "output reads current state" false out.(0);
  Alcotest.(check bool) "toggled" true st1.(0);
  let _, st2 = N.step net st1 [| false |] in
  Alcotest.(check bool) "held" true st2.(0)

let test_netlist_cycle_detected () =
  let b = N.create "cyclic" in
  let l = N.add_latch b ~name:"q" ~init:false () in
  (* a combinational 2-cycle *)
  let n1 = N.add_node b (E.Var 0) [| l |] in
  (* build a cycle by making a node that will eventually feed itself *)
  let n2 = N.add_node b (E.Var 0) [| n1 |] in
  ignore n2;
  N.set_latch_input b l n1;
  (* no cycle yet: freeze succeeds *)
  ignore (N.freeze b : N.t);
  (* a genuinely cyclic net cannot even be expressed through the builder:
     a node's fanins must exist already, so only latches refer forward *)
  let b1 = N.create "forward" in
  let _ = N.add_input b1 "a" in
  Alcotest.check_raises "forward fanin"
    (Invalid_argument "Netlist.add_node: fanin not yet created") (fun () ->
      ignore (N.add_node b1 (E.Var 0) [| 1 |] : N.net));
  (* a disconnected latch is rejected *)
  let b2 = N.create "dangling" in
  let _ = N.add_latch b2 ~name:"q" ~init:false () in
  Alcotest.check_raises "disconnected latch"
    (Invalid_argument "Netlist.freeze: latch q disconnected") (fun () ->
      ignore (N.freeze b2 : N.t))

let test_reachable_counter () =
  let net = Circuits.Generators.counter 3 in
  Alcotest.(check int) "counter visits all 8 states" 8
    (List.length (N.reachable_states net))

let test_reachable_johnson () =
  let net = Circuits.Generators.johnson 3 in
  (* a 3-stage Johnson counter cycles through 6 of 8 states *)
  Alcotest.(check int) "johnson ring length" 6
    (List.length (N.reachable_states net))

(* --- BLIF ----------------------------------------------------------------- *)

let example_blif =
  {|# a 2-latch example
.model fig3
.inputs i
.outputs o
.latch n1 cs1 0
.latch n2 cs2 0
.names i cs2 n1
11 1
.names i cs1 n2
0- 1
-1 1
.names cs1 cs2 o
01 1
10 1
.end
|}

let test_blif_parse () =
  let net = B.parse_string example_blif in
  Alcotest.(check int) "inputs" 1 (N.num_inputs net);
  Alcotest.(check int) "latches" 2 (N.num_latches net);
  Alcotest.(check int) "outputs" 1 (N.num_outputs net)

let test_blif_semantics () =
  let net = B.parse_string example_blif in
  let st = N.initial_state net in
  (* from (0,0) under i=0: T1 = 0&cs2 = 0, T2 = !0 | cs1 = 1 -> state 01 *)
  let out, st' = N.step net st [| false |] in
  Alcotest.(check bool) "o = cs1 xor cs2 = 0" false out.(0);
  Alcotest.(check (pair bool bool)) "next state 01" (false, true)
    (st'.(0), st'.(1))

let states_equal a b = Array.to_list a = Array.to_list b

let behaviour_equivalent net1 net2 rounds =
  (* run both nets on identical random input sequences *)
  let ni = N.num_inputs net1 in
  ni = N.num_inputs net2
  && N.num_outputs net1 = N.num_outputs net2
  &&
  let ok = ref true in
  let st1 = ref (N.initial_state net1) and st2 = ref (N.initial_state net2) in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to rounds do
    let inputs = Array.init ni (fun _ -> Random.State.bool rng) in
    let o1, s1 = N.step net1 !st1 inputs in
    let o2, s2 = N.step net2 !st2 inputs in
    if not (states_equal o1 o2) then ok := false;
    st1 := s1;
    st2 := s2
  done;
  !ok

let test_blif_roundtrip () =
  let net = B.parse_string example_blif in
  let again = B.parse_string (B.to_string net) in
  Alcotest.(check bool) "roundtrip behaviour" true
    (behaviour_equivalent net again 200)

let test_blif_roundtrip_generated () =
  List.iter
    (fun net ->
      let again = B.parse_string (B.to_string net) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (B.parse_string (B.to_string net)).N.name)
        true
        (behaviour_equivalent net again 100))
    [ Circuits.Generators.counter 4;
      Circuits.Generators.traffic_light ();
      Circuits.Generators.lfsr 5;
      Circuits.Generators.arbiter 3 ]

let test_blif_continuation_and_comments () =
  let text =
    ".model c  # trailing comment\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
  in
  let net = B.parse_string text in
  Alcotest.(check int) "two inputs via continuation" 2 (N.num_inputs net)

let test_blif_errors () =
  let bad = ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n" in
  Alcotest.(check bool) "bad cover char rejected" true
    (match B.parse_string bad with
     | exception B.Parse_error _ -> true
     | exception Invalid_argument _ -> true
     | _ -> false);
  let undefined = ".model m\n.inputs a\n.outputs y\n.end\n" in
  Alcotest.(check bool) "undefined output rejected" true
    (match B.parse_string undefined with
     | exception B.Parse_error _ -> true
     | _ -> false)

(* --- Symbolic ------------------------------------------------------------- *)

let test_symbolic_matches_simulation () =
  let nets =
    [ toggle_net (); Circuits.Generators.counter 3;
      Circuits.Generators.traffic_light (); Circuits.Generators.lfsr 4 ]
  in
  List.iter
    (fun net ->
      let man = Bdd.Manager.create () in
      let sym = S.of_netlist man net in
      let ni = N.num_inputs net in
      let nl = N.num_latches net in
      let rng = Random.State.make [| 7 |] in
      for _ = 1 to 100 do
        let inputs = Array.init ni (fun _ -> Random.State.bool rng) in
        let state = Array.init nl (fun _ -> Random.State.bool rng) in
        let env v =
          (* the assignment seen by the BDDs *)
          match List.find_index (fun w -> w = v) sym.S.input_vars with
          | Some k -> inputs.(k)
          | None -> (
            match List.find_index (fun w -> w = v) sym.S.state_vars with
            | Some k -> state.(k)
            | None -> false)
        in
        let outs, next = N.step net state inputs in
        List.iteri
          (fun k fn ->
            Alcotest.(check bool)
              (Printf.sprintf "%s next_fn %d" net.N.name k)
              next.(k)
              (Bdd.Ops.eval man fn env))
          sym.S.next_fns;
        List.iteri
          (fun k (_, fn) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s out_fn %d" net.N.name k)
              outs.(k)
              (Bdd.Ops.eval man fn env))
          sym.S.output_fns
      done)
    nets

let test_symbolic_init_cube () =
  let man = Bdd.Manager.create () in
  let sym = S.of_netlist man (Circuits.Generators.lfsr 4) in
  (* lfsr latch 0 initializes to 1, the rest to 0 *)
  let expected =
    Bdd.Ops.cube_of_literals man
      (List.mapi (fun k v -> (v, k = 0)) sym.S.state_vars)
  in
  Alcotest.(check int) "init cube" expected sym.S.init_cube

let test_symbolic_interleave_order () =
  let man = Bdd.Manager.create () in
  let sym = S.of_netlist man (Circuits.Generators.counter 2) in
  List.iter2
    (fun cs ns ->
      Alcotest.(check int) "ns immediately after cs" (cs + 1) ns)
    sym.S.state_vars sym.S.next_state_vars

let () =
  Alcotest.run "network"
    [ ( "expr",
        [ Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "cover" `Quick test_expr_cover;
          Alcotest.test_case "cover complement" `Quick test_expr_cover_complement;
          Alcotest.test_case "cover empty" `Quick test_expr_cover_empty ] );
      ( "netlist",
        [ Alcotest.test_case "counts" `Quick test_netlist_counts;
          Alcotest.test_case "step" `Quick test_netlist_step;
          Alcotest.test_case "validation" `Quick test_netlist_cycle_detected;
          Alcotest.test_case "reachable counter" `Quick test_reachable_counter;
          Alcotest.test_case "reachable johnson" `Quick test_reachable_johnson ] );
      ( "blif",
        [ Alcotest.test_case "parse" `Quick test_blif_parse;
          Alcotest.test_case "semantics" `Quick test_blif_semantics;
          Alcotest.test_case "roundtrip" `Quick test_blif_roundtrip;
          Alcotest.test_case "roundtrip generated" `Quick
            test_blif_roundtrip_generated;
          Alcotest.test_case "continuations" `Quick
            test_blif_continuation_and_comments;
          Alcotest.test_case "errors" `Quick test_blif_errors ] );
      ( "symbolic",
        [ Alcotest.test_case "matches simulation" `Quick
            test_symbolic_matches_simulation;
          Alcotest.test_case "init cube" `Quick test_symbolic_init_cube;
          Alcotest.test_case "interleaved order" `Quick
            test_symbolic_interleave_order ] ) ]
