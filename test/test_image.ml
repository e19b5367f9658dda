(* Tests for the img library: early-quantification scheduling agrees with
   the monolithic computation ([Reference.Quantify.monolithic_and_exists],
   the reference), images agree across strategies, clustering preserves
   semantics, and symbolic reachability matches explicit state
   enumeration. *)

module M = Bdd.Manager
module O = Bdd.Ops
module Q = Img.Quantify
module P = Img.Partition
module I = Img.Image
module R = Img.Reach
module S = Network.Symbolic

let random_bdd = Helpers.random_bdd ~depth:3

let test_and_exists_agrees () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 50 do
    let man = M.create () in
    let nvars = 8 in
    ignore (M.new_vars man nvars : int list);
    let rels = List.init 5 (fun _ -> random_bdd man nvars rng) in
    let quantify = [ 1; 3; 5 ] in
    let mono = Reference.Quantify.monolithic_and_exists man rels ~quantify in
    Alcotest.(check int) "greedy = monolithic" mono
      (Q.and_exists_list man ~order:Q.Greedy rels ~quantify);
    Alcotest.(check int) "given = monolithic" mono
      (Q.and_exists_list man ~order:Q.Given rels ~quantify)
  done

let test_and_exists_empty_quantify () =
  let man = M.create () in
  ignore (M.new_vars man 4 : int list);
  let a = O.var_bdd man 0 and b = O.var_bdd man 2 in
  Alcotest.(check int) "plain conjunction" (O.band man a b)
    (Q.and_exists_list man [ a; b ] ~quantify:[])

let test_and_exists_all_quantified () =
  let man = M.create () in
  ignore (M.new_vars man 2 : int list);
  let a = O.var_bdd man 0 in
  let na = O.nvar_bdd man 0 in
  Alcotest.(check int) "unsat product" M.zero
    (Q.and_exists_list man [ a; na ] ~quantify:[ 0; 1 ]);
  Alcotest.(check int) "sat product" M.one
    (Q.and_exists_list man [ a; a ] ~quantify:[ 0; 1 ])

(* The schedule's bookkeeping against the monolithic [∃ quantify. ∧ rels]
   on random conjunct lists, empty ones included. Each conjunct is a
   random function of variables 0-5 xor variable 6, so variable 6 occurs
   in every conjunct and variable 7 in none; [quantify] always names both
   and names every variable it draws twice. *)
let prop_and_exists_list_reference =
  QCheck.Test.make ~count:300
    ~name:"and_exists_list = exists of the conjunction"
    QCheck.(triple small_nat (int_range 0 6)
              (list_of_size (QCheck.Gen.int_range 0 8) (int_bound 7)))
    (fun (seed, k, drawn) ->
      let rng = Random.State.make [| seed |] in
      let man = M.create () in
      ignore (M.new_vars man 8 : int list);
      let x6 = O.var_bdd man 6 in
      let rels = List.init k (fun _ -> O.bxor man (random_bdd man 6 rng) x6) in
      let quantify = (6 :: 7 :: drawn) @ drawn in
      let mono =
        O.exists man (O.cube_of_vars man quantify) (O.conj man rels)
      in
      (k > 0 || mono = M.one)
      && List.for_all
           (fun order -> Q.and_exists_list man ~order rels ~quantify = mono)
           [ Q.Greedy; Q.Given ])

(* The schedule's per-conjunct buffers are reused across calls: a call
   with fewer conjuncts than the one before must read nothing past its
   own, in either order, or a stale conjunct (or an unused slot's
   [zero]) would be picked and conjoined. Every conjunct holds where the
   unquantified variable 7 does, so no product is [zero]. *)
let test_and_exists_reused_buffers () =
  let rng = Random.State.make [| 29 |] in
  for _ = 1 to 20 do
    let man = M.create () in
    ignore (M.new_vars man 8 : int list);
    let quantify = [ 0; 2; 4; 6 ] in
    let x7 = O.var_bdd man 7 in
    List.iter
      (fun k ->
        let parts =
          List.init k (fun _ -> O.bor man (random_bdd man 7 rng) x7)
        in
        let expected =
          O.exists man (O.cube_of_vars man quantify) (O.conj man parts)
        in
        List.iter
          (fun (label, order) ->
            Alcotest.(check int)
              (Printf.sprintf "%s, %d conjuncts" label k)
              expected
              (Q.and_exists_list man ~order parts ~quantify))
          [ ("given", Q.Given); ("greedy", Q.Greedy) ])
      [ 7; 2; 5 ]
  done

let strategies =
  [ ("partitioned-given", I.Partitioned Q.Given);
    ("partitioned-greedy", I.Partitioned Q.Greedy) ]

(* affinity thresholds; 0 keeps the partition unclustered *)
let thresholds = [ 0; 25; 200 ]

let test_cluster_preserves_product () =
  let rng = Random.State.make [| 23 |] in
  for _ = 1 to 20 do
    let man = M.create () in
    ignore (M.new_vars man 8 : int list);
    let parts = List.init 6 (fun _ -> random_bdd man 8 rng) in
    List.iter
      (fun threshold ->
        let clustered = P.cluster_affinity man ~threshold parts in
        Alcotest.(check int)
          (Printf.sprintf "affinity-%d: same product" threshold)
          (P.monolithic man parts)
          (P.monolithic man clustered);
        Alcotest.(check bool)
          (Printf.sprintf "affinity-%d: no more parts than before" threshold)
          true
          (List.length clustered <= List.length parts))
      thresholds
  done

(* The oracle the whole fused-kernel rewrite is checked against: for 50
   seeded random partitions, the clustered image under every quantification
   schedule must equal the naive unclustered computation (conjoin all parts,
   then quantify). *)
let test_clustered_image_oracle () =
  let rng = Random.State.make [| 0xc105 |] in
  for _ = 1 to 50 do
    let man = M.create () in
    let nvars = 10 in
    ignore (M.new_vars man nvars : int list);
    let parts = List.init 7 (fun _ -> random_bdd man nvars rng) in
    let care = random_bdd man nvars rng in
    let quantify = [ 0; 2; 4; 6; 8 ] in
    let naive =
      O.exists man
        (O.cube_of_vars man quantify)
        (O.band man care (P.monolithic man parts))
    in
    List.iter
      (fun threshold ->
        let clustered = P.cluster_affinity man ~threshold parts in
        List.iter
          (fun (sname, strategy) ->
            Alcotest.(check int)
              (Printf.sprintf "affinity-%d/%s = naive" threshold sname)
              naive
              (I.image man ~strategy (care :: clustered) ~quantify))
          strategies)
      thresholds
  done

(* the reference forward step: conjoin everything, quantify, rename (the
   collector is off in these tests, so nothing needs pinning) *)
let monolithic_forward man ~parts ~quantify ~rename frontier =
  O.rename man
    (Reference.Quantify.monolithic_and_exists man (frontier :: parts) ~quantify)
    rename

let test_image_strategies_agree () =
  let nets =
    [ Circuits.Generators.counter 4; Circuits.Generators.lfsr 5;
      Circuits.Generators.traffic_light () ]
  in
  List.iter
    (fun net ->
      let man = M.create () in
      let sym = S.of_netlist man net in
      let parts = P.of_functions man (S.transition_parts sym) in
      let quantify = sym.S.input_vars @ sym.S.state_vars in
      let rename = S.ns_to_cs sym in
      let reference =
        monolithic_forward man ~parts ~quantify ~rename sym.S.init_cube
      in
      List.iter
        (fun (name, strategy) ->
          Alcotest.(check int)
            (Printf.sprintf "%s image" name)
            reference
            (I.forward man ~strategy ~parts ~quantify ~rename sym.S.init_cube))
        strategies)
    nets

let test_reachable_counts () =
  let cases =
    [ (Circuits.Generators.counter 3, 8.0);
      (Circuits.Generators.counter 5, 32.0);
      (Circuits.Generators.johnson 4, 8.0);
      (Circuits.Generators.traffic_light (), 4.0);
      (Circuits.Generators.shift_register 4, 16.0) ]
  in
  List.iter
    (fun (net, expected) ->
      let man = M.create () in
      let sym = S.of_netlist man net in
      let r, _ = R.reachable sym in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "reach %s" net.Network.Netlist.name)
        expected (R.count_states sym r))
    cases

let test_reachable_matches_explicit () =
  let nets =
    [ Circuits.Generators.lfsr 5; Circuits.Generators.arbiter 3;
      Circuits.Generators.gray_counter 4 ]
  in
  List.iter
    (fun net ->
      let man = M.create () in
      let sym = S.of_netlist man net in
      let symbolic = R.count_states sym (fst (R.reachable sym)) in
      let explicit =
        float_of_int (List.length (Network.Netlist.reachable_states net))
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "reach %s" net.Network.Netlist.name)
        explicit symbolic)
    nets

(* one forward step for the fixpoint tests: the image of [frontier],
   renamed back to current-state variables *)
let forward ?(strategy = I.Partitioned Q.Greedy) (sym : S.t) parts =
  I.forward sym.S.man ~strategy ~parts
    ~quantify:(sym.S.input_vars @ sym.S.state_vars)
    ~rename:(S.ns_to_cs sym)

let reach_with man ~image init =
  match R.fixpoint man ~image init with
  | R.Reached { reached; steps } -> (reached, steps)
  | R.Met_bad -> Alcotest.fail "no bad predicate, yet bad was met"

(* [reachable] (greedy) and the fixpoint driven by the given-order and the
   monolithic image reach the same set in the same number of steps *)
let test_reachable_strategies_agree () =
  let net = Circuits.Generators.lfsr 6 in
  let man = M.create () in
  let sym = S.of_netlist man net in
  let parts = P.of_functions man (S.transition_parts sym) in
  let a =
    reach_with man sym.S.init_cube
      ~image:
        (monolithic_forward man ~parts
           ~quantify:(sym.S.input_vars @ sym.S.state_vars)
           ~rename:(S.ns_to_cs sym))
  in
  let b = R.reachable sym in
  let c =
    reach_with man sym.S.init_cube
      ~image:(forward ~strategy:(I.Partitioned Q.Given) sym parts)
  in
  Alcotest.(check (pair int int)) "mono = greedy" a b;
  Alcotest.(check (pair int int)) "mono = given" a c

let test_frontier_reachable () =
  let man = M.create () in
  let sym = S.of_netlist man (Circuits.Generators.counter 4) in
  let reached, steps = R.reachable sym in
  Alcotest.(check (float 1e-9)) "all 16 states" 16.0
    (R.count_states sym reached);
  (* a 4-bit counter has diameter 15: the frontier loop needs 16 images *)
  Alcotest.(check int) "steps = diameter + 1" 16 steps;
  (* the callback sees every frontier, the final empty one included *)
  let parts = P.of_functions man (S.transition_parts sym) in
  let frontiers = ref 0 in
  match
    R.fixpoint man
      ~on_frontier:(fun _ -> incr frontiers)
      ~image:(forward sym parts) sym.S.init_cube
  with
  | R.Reached { steps; _ } ->
    Alcotest.(check int) "one callback per frontier" (steps + 1) !frontiers
  | R.Met_bad -> Alcotest.fail "no bad predicate, yet bad was met"

(* The shared fixpoint's pin discipline. The image function collects
   before every image, so anything the fixpoint or the onion callback
   fails to pin is swept mid-loop. Each run is compared with a
   collection-free run on the same manager, whose results stay pinned:
   by canonicity, equal functions have equal ids. *)
let test_fixpoint_survives_collections () =
  let man = M.create () in
  M.set_auto_gc man true;
  let sym = S.of_netlist man (Circuits.Generators.counter 4) in
  M.with_roots man @@ fun rs ->
  let pin f = ignore (M.Roots.add rs f : int) in
  let parts = P.of_functions man (S.transition_parts sym) in
  List.iter pin parts;
  let swept = ref 0 in
  let image ~collect frontier =
    if collect then swept := !swept + M.collect man;
    forward sym parts frontier
  in
  let init = sym.S.init_cube in
  let reach ~collect =
    match R.fixpoint man ~image:(image ~collect) init with
    | R.Reached { reached; steps } ->
      pin reached;
      (reached, steps)
    | R.Met_bad -> Alcotest.fail "no bad predicate, yet bad was met"
  in
  let reference = reach ~collect:false in
  Alcotest.(check (pair int int)) "reached set and steps" reference
    (reach ~collect:true);
  Alcotest.(check bool) "collections swept nodes" true (!swept > 0);
  (* bad: the counter's all-ones state, met on the last frontier *)
  let all_ones =
    O.cube_of_literals man (List.map (fun v -> (v, true)) sym.S.state_vars)
  in
  pin all_ones;
  let bad f = O.band man f all_ones <> M.zero in
  let onion ~collect =
    let layers = ref [] in
    let on_frontier f =
      pin f;
      layers := f :: !layers
    in
    match R.fixpoint man ~bad ~on_frontier ~image:(image ~collect) init with
    | R.Met_bad -> List.rev !layers
    | R.Reached _ -> Alcotest.fail "the all-ones state is reachable"
  in
  let reference = onion ~collect:false in
  Alcotest.(check int) "one layer per state" 16 (List.length reference);
  Alcotest.(check (list int)) "onion layers" reference (onion ~collect:true)

(* --- Equiv ---------------------------------------------------------------- *)

let run_trace net trace =
  (* outputs observed at the last step of the input sequence *)
  let st = ref (Network.Netlist.initial_state net) in
  let last = ref [||] in
  List.iter
    (fun inputs ->
      let out, st' = Network.Netlist.step net !st inputs in
      last := out;
      st := st')
    trace;
  !last

let test_equiv_identical () =
  let a = Circuits.Generators.counter 4 in
  let b = Circuits.Generators.counter 4 in
  Alcotest.(check bool) "identical counters" true
    (Img.Equiv.check a b = Img.Equiv.Equivalent)

(* [Circuits.Generators.counter 3] (next states [c_k xor (en & c_0 & ...
   & c_k-1)], output [carry]) written as AND/OR/NOT sums of products, one
   node each, with the latches declared high bit first. [~near_miss] drops
   one inverter from bit 1's cover: in state 3, bit 1 then follows [en]
   instead of its complement. *)
let counter3_sop ?(near_miss = false) () =
  let module N = Network.Netlist in
  let module E = Network.Expr in
  let b = N.create "counter3_sop" in
  let en = N.add_input b "en" in
  let c2 = N.add_latch b ~name:"c2" ~init:false () in
  let c1 = N.add_latch b ~name:"c1" ~init:false () in
  let c0 = N.add_latch b ~name:"c0" ~init:false () in
  (* fanins: Var 0 = c0, Var 1 = c1, Var 2 = c2, Var 3 = en *)
  let p k = E.Var k and n k = E.Not (E.Var k) in
  let cover terms = E.disj (List.map E.conj terms) in
  let fanins = [| c0; c1; c2; en |] in
  let next0 = cover [ [ p 0; n 3 ]; [ n 0; p 3 ] ] in
  let next1 =
    cover
      [ [ p 1; n 0 ]; [ p 1; (if near_miss then p 3 else n 3) ];
        [ n 1; p 0; p 3 ] ]
  in
  let next2 =
    cover [ [ p 2; n 0 ]; [ p 2; n 1 ]; [ p 2; n 3 ]; [ n 2; p 0; p 1; p 3 ] ]
  in
  List.iter2
    (fun latch fn -> N.set_latch_input b latch (N.add_node b fn fanins))
    [ c0; c1; c2 ] [ next0; next1; next2 ];
  N.add_output b "carry" (N.add_node b (E.conj [ p 0; p 1; p 2; p 3 ]) fanins);
  N.freeze b

(* A toggle flop [q' = q xor i] with outputs [o = q] and [p = q xor i];
   [~duplicate] adds a second flop [r] on the same input and reads [o] as
   [q & r] and [p] from [r]. *)
let toggle ~duplicate =
  let module N = Network.Netlist in
  let module E = Network.Expr in
  let b = N.create "toggle" in
  let i = N.add_input b "i" in
  let q = N.add_latch b ~name:"q" ~init:false () in
  let next l = N.add_node b E.(Xor (Var 0, Var 1)) [| l; i |] in
  N.set_latch_input b q (next q);
  if duplicate then begin
    let r = N.add_latch b ~name:"r" ~init:false () in
    let r_next = next r in
    N.set_latch_input b r r_next;
    N.add_output b "o" (N.add_node b E.(And (Var 0, Var 1)) [| q; r |]);
    N.add_output b "p" r_next
  end
  else begin
    N.add_output b "o" q;
    N.add_output b "p" (next q)
  end;
  N.freeze b

let test_equiv_structural_variants () =
  let equivalent name a b =
    Alcotest.(check bool) name true (Img.Equiv.check a b = Img.Equiv.Equivalent)
  in
  let counter3 = Circuits.Generators.counter 3 in
  equivalent "xor counter ~ sum-of-products counter" counter3 (counter3_sop ());
  let dup = toggle ~duplicate:true and single = toggle ~duplicate:false in
  Alcotest.(check (pair int int)) "latch counts differ" (2, 1)
    (Network.Netlist.num_latches dup, Network.Netlist.num_latches single);
  equivalent "duplicate latch ~ single latch" dup single;
  List.iter
    (fun net ->
      let back = Network.Blif.(parse_string (to_string net)) in
      equivalent (net.Network.Netlist.name ^ " ~ BLIF round trip") net back)
    [ Circuits.Generators.traffic_light ();
      Circuits.Generators.vending ();
      Circuits.Generators.random_logic ~seed:6 ~inputs:3 ~outputs:2
        ~latches:5 ~levels:3 () ];
  let near_miss = counter3_sop ~near_miss:true () in
  match Img.Equiv.check counter3 near_miss with
  | Img.Equiv.Equivalent -> Alcotest.fail "near miss reported equivalent"
  | Img.Equiv.Different trace ->
    Alcotest.(check bool) "near miss trace distinguishes" true
      (run_trace counter3 trace <> run_trace near_miss trace)

let test_equiv_detects_difference () =
  (* counters with different widths have the same interface but diverge at
     the carry *)
  let a = Circuits.Generators.counter 3 in
  let b = Circuits.Generators.counter 4 in
  match Img.Equiv.check a b with
  | Img.Equiv.Equivalent -> Alcotest.fail "expected difference"
  | Img.Equiv.Different trace ->
    Alcotest.(check bool) "trace non-empty" true (trace <> []);
    (* replaying the trace must expose the mismatch on the final cycle *)
    let oa = run_trace a trace and ob = run_trace b trace in
    Alcotest.(check bool) "trace distinguishes" true (oa <> ob);
    (* the counters first differ at the 3-bit carry: cycle 8 *)
    Alcotest.(check int) "shortest trace" 8 (List.length trace)

let test_equiv_initial_difference () =
  let mk init =
    let b = Network.Netlist.create "one" in
    let l = Network.Netlist.add_latch b ~name:"q" ~init () in
    let inp = Network.Netlist.add_input b "i" in
    Network.Netlist.set_latch_input b l inp;
    Network.Netlist.add_output b "o" l;
    Network.Netlist.freeze b
  in
  match Img.Equiv.check (mk false) (mk true) with
  | Img.Equiv.Different [ _ ] -> ()
  | Img.Equiv.Different t ->
    Alcotest.fail
      (Printf.sprintf "expected length-1 trace, got %d" (List.length t))
  | Img.Equiv.Equivalent -> Alcotest.fail "expected difference"

let test_equiv_interface_mismatch () =
  Alcotest.(check bool) "interface mismatch rejected" true
    (match
       Img.Equiv.check (Circuits.Generators.counter 2)
         (Circuits.Generators.traffic_light ())
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let () =
  Alcotest.run "image"
    [ ( "quantify",
        [ Alcotest.test_case "agrees with monolithic" `Quick
            test_and_exists_agrees;
          Alcotest.test_case "empty quantifier" `Quick
            test_and_exists_empty_quantify;
          Alcotest.test_case "full quantification" `Quick
            test_and_exists_all_quantified;
          Alcotest.test_case "reused buffers: 7, 2, then 5 conjuncts"
            `Quick test_and_exists_reused_buffers;
          QCheck_alcotest.to_alcotest prop_and_exists_list_reference ] );
      ( "partition",
        [ Alcotest.test_case "clustering" `Quick test_cluster_preserves_product;
          Alcotest.test_case "clustered image oracle" `Quick
            test_clustered_image_oracle ] );
      ( "image",
        [ Alcotest.test_case "strategies agree" `Quick
            test_image_strategies_agree ] );
      ( "reach",
        [ Alcotest.test_case "known counts" `Quick test_reachable_counts;
          Alcotest.test_case "matches explicit" `Quick
            test_reachable_matches_explicit;
          Alcotest.test_case "strategies agree" `Quick
            test_reachable_strategies_agree;
          Alcotest.test_case "frontier" `Quick test_frontier_reachable;
          Alcotest.test_case "fixpoint under collections" `Quick
            test_fixpoint_survives_collections ] );
      ( "equiv",
        [ Alcotest.test_case "identical" `Quick test_equiv_identical;
          Alcotest.test_case "structural variants" `Quick
            test_equiv_structural_variants;
          Alcotest.test_case "detects difference" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "initial state difference" `Quick
            test_equiv_initial_difference;
          Alcotest.test_case "interface mismatch" `Quick
            test_equiv_interface_mismatch ] ) ]
