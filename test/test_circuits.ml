(* Sanity tests for the benchmark circuit generators: each family's defining
   behaviour is checked by explicit simulation. *)

module N = Network.Netlist
module G = Circuits.Generators

let run = Helpers.sim_run

let test_counter_period () =
  let net = G.counter 3 in
  (* enabled counter: carry pulses exactly once every 8 cycles *)
  let outs = run net 16 (fun _ -> [| true |]) in
  let carries = List.filteri (fun _ o -> o.(0)) outs in
  Alcotest.(check int) "two carries in 16 enabled steps" 2
    (List.length carries);
  (* disabled: state frozen, no carry *)
  let outs = run net 10 (fun _ -> [| false |]) in
  Alcotest.(check bool) "no carry when disabled" true
    (List.for_all (fun o -> not o.(0)) outs)

let test_counter_reaches_all_states () =
  Alcotest.(check int) "16 states" 16
    (List.length (N.reachable_states (G.counter 4)))

let popcount_diff a b =
  let d = ref 0 in
  Array.iteri (fun k x -> if x <> b.(k) then incr d) a;
  !d

let test_gray_one_bit_changes () =
  let net = G.gray_counter 4 in
  let outs = run net 20 (fun _ -> [| true |]) in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check int) "gray outputs differ by one bit" 1
        (popcount_diff a b);
      pairs rest
    | [ _ ] | [] -> ()
  in
  pairs outs

let test_shift_delay () =
  let net = G.shift_register 4 in
  let stimulus = [| true; false; true; true; false; false; true; false |] in
  let outs = run net 8 (fun k -> [| stimulus.(k) |]) in
  (* sout at cycle k equals the input at cycle k - 4 *)
  List.iteri
    (fun k o ->
      if k >= 4 then
        Alcotest.(check bool)
          (Printf.sprintf "delayed bit %d" k)
          stimulus.(k - 4) o.(0))
    outs

let test_pattern_detector () =
  let pattern = "1011" in
  let net = G.pattern_detector pattern in
  let stimulus = "0101100101101011010" in
  let bits = List.init (String.length stimulus) (fun k -> stimulus.[k] = '1') in
  let st = ref (N.initial_state net) in
  List.iteri
    (fun k b ->
      let out, st' = N.step net !st [| b |] in
      st := st';
      (* after consuming bit k, the window holds bits k-3..k *)
      if k >= 3 then begin
        let window = String.sub stimulus (k - 3) 4 in
        (* output is registered: it reflects the window BEFORE this step;
           check the post-step window by peeking the next output *)
        ignore window;
        ignore out
      end)
    bits;
  (* direct check: feed exactly the pattern and read the hit afterwards *)
  let st = ref (N.initial_state net) in
  String.iter
    (fun c ->
      let _, st' = N.step net !st [| c = '1' |] in
      st := st')
    pattern;
  let out, _ = N.step net !st [| false |] in
  Alcotest.(check bool) "hit after exact pattern" true out.(0)

let test_lfsr_maximal_period () =
  (* the default taps (3,2) give a maximal-length 4-bit LFSR: period 15 *)
  let net = G.lfsr 4 in
  Alcotest.(check int) "15 reachable states" 15
    (List.length (N.reachable_states net))

let test_lfsr_hold () =
  let net = G.lfsr 5 in
  let st0 = N.initial_state net in
  let _, st1 = N.step net st0 [| false |] in
  Alcotest.(check bool) "disabled lfsr holds" true (st0 = st1)

let test_johnson_cycle () =
  let net = G.johnson 4 in
  Alcotest.(check int) "2n states in the ring" 8
    (List.length (N.reachable_states net))

let test_traffic_safety () =
  let net = G.traffic_light () in
  (* exhaustive over all reachable states and inputs: at most one green,
     and green/yellow of the same road are mutually exclusive *)
  List.iter
    (fun st ->
      for bits = 0 to 3 do
        let inputs = [| bits land 1 = 1; bits land 2 = 2 |] in
        let out, _ = N.step net st inputs in
        let hg = out.(0) and hy = out.(1) and fg = out.(2) and fy = out.(3) in
        Alcotest.(check bool) "not both greens" false (hg && fg);
        Alcotest.(check bool) "exactly one phase" true
          (List.length (List.filter Fun.id [ hg; hy; fg; fy ]) = 1)
      done)
    (N.reachable_states net)

let test_arbiter_invariants () =
  let net = G.arbiter 3 in
  List.iter
    (fun st ->
      (* the token is one-hot in every reachable state *)
      Alcotest.(check int) "one-hot token" 1
        (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 st);
      for bits = 0 to 7 do
        let inputs = Array.init 3 (fun k -> bits land (1 lsl k) <> 0) in
        let out, _ = N.step net st inputs in
        let grants =
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 out
        in
        Alcotest.(check bool) "at most one grant" true (grants <= 1);
        Array.iteri
          (fun k g ->
            if g then
              Alcotest.(check bool) "grant implies request" true inputs.(k))
          out
      done)
    (N.reachable_states net)

let test_arbiter_no_starvation_when_idle () =
  (* with no requests the token must rotate through all positions *)
  let net = G.arbiter 4 in
  let st = ref (N.initial_state net) in
  let positions = Hashtbl.create 4 in
  for _ = 1 to 8 do
    Array.iteri (fun k b -> if b then Hashtbl.replace positions k ()) !st;
    let _, st' = N.step net !st [| false; false; false; false |] in
    st := st'
  done;
  Alcotest.(check int) "token visited all positions" 4
    (Hashtbl.length positions)

let test_vending () =
  let net = G.vending () in
  let step st n d =
    let out, st' = N.step net st [| n; d |] in
    (out, st')
  in
  let st = N.initial_state net in
  (* three nickels then check dispense *)
  let _, st = step st true false in
  let _, st = step st true false in
  let out, st = step st true false in
  Alcotest.(check bool) "not yet at 10c" false out.(0);
  let out, _ = step st false false in
  Alcotest.(check bool) "dispense at 15c" true out.(0);
  (* nickel + dime also reaches 15 *)
  let st = N.initial_state net in
  let _, st = step st true true in
  let out, _ = step st false false in
  Alcotest.(check bool) "5+10 dispenses" true out.(0)

let test_out_of_range () =
  (* every family rejects a size outside its range, and a detector pattern
     with a character other than 0/1, naming the family in the message *)
  let rejects what family f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (what ^ " names " ^ family)
        true
        (String.starts_with ~prefix:(family ^ ": ") msg)
  in
  rejects "counter 0" "counter" (fun () -> G.counter 0);
  rejects "gray 0" "gray" (fun () -> G.gray_counter 0);
  rejects "shift 0" "shift" (fun () -> G.shift_register 0);
  rejects "lfsr 1" "lfsr" (fun () -> G.lfsr 1);
  rejects "johnson 0" "johnson" (fun () -> G.johnson 0);
  rejects "arbiter 1" "arbiter" (fun () -> G.arbiter 1);
  rejects "empty pattern" "detector" (fun () -> G.pattern_detector "");
  rejects "pattern 1x1" "detector" (fun () -> G.pattern_detector "1x1");
  rejects "rnd with no inputs" "rnd" (fun () ->
      G.random_logic ~seed:1 ~inputs:0 ~outputs:1 ~latches:1 ~levels:1 ());
  (* the smallest sizes in range still build *)
  List.iter
    (fun net -> ignore (N.num_latches net : int))
    [ G.counter 1; G.gray_counter 1; G.shift_register 1; G.lfsr 2;
      G.johnson 1; G.arbiter 2; G.pattern_detector "0";
      G.random_logic ~seed:1 ~inputs:1 ~outputs:1 ~latches:1 ~levels:1 () ]

let test_parallel_composition () =
  let a = G.counter 2 and b = G.shift_register 3 in
  let c = G.parallel "combo" [ a; b ] in
  Alcotest.(check int) "inputs add" (N.num_inputs a + N.num_inputs b)
    (N.num_inputs c);
  Alcotest.(check int) "outputs add" (N.num_outputs a + N.num_outputs b)
    (N.num_outputs c);
  Alcotest.(check int) "latches add" (N.num_latches a + N.num_latches b)
    (N.num_latches c);
  (* behaviour is componentwise *)
  let rng = Random.State.make [| 5 |] in
  let sa = ref (N.initial_state a) and sb = ref (N.initial_state b) in
  let sc = ref (N.initial_state c) in
  for _ = 1 to 100 do
    let ia = Array.init (N.num_inputs a) (fun _ -> Random.State.bool rng) in
    let ib = Array.init (N.num_inputs b) (fun _ -> Random.State.bool rng) in
    let oa, sa' = N.step a !sa ia in
    let ob, sb' = N.step b !sb ib in
    let oc, sc' = N.step c !sc (Array.append ia ib) in
    Alcotest.(check bool) "outputs concatenate" true
      (Array.to_list oc = Array.to_list oa @ Array.to_list ob);
    sa := sa';
    sb := sb';
    sc := sc'
  done

let test_random_logic_deterministic () =
  let mk () =
    G.random_logic ~seed:7 ~inputs:3 ~outputs:2 ~latches:4 ~levels:3 ()
  in
  let a = mk () and b = mk () in
  (* identical structure for identical seeds: same simulation trace *)
  let rng = Random.State.make [| 1 |] in
  let sa = ref (N.initial_state a) and sb = ref (N.initial_state b) in
  for _ = 1 to 100 do
    let i = Array.init 3 (fun _ -> Random.State.bool rng) in
    let oa, sa' = N.step a !sa i in
    let ob, sb' = N.step b !sb i in
    Alcotest.(check bool) "same outputs" true (oa = ob);
    sa := sa';
    sb := sb'
  done;
  Alcotest.(check int) "latch count as requested" 4 (N.num_latches a)

let test_random_logic_seeds_differ () =
  let a = G.random_logic ~seed:1 ~inputs:3 ~outputs:2 ~latches:4 ~levels:3 () in
  let b = G.random_logic ~seed:2 ~inputs:3 ~outputs:2 ~latches:4 ~levels:3 () in
  (* different seeds almost surely give different behaviour *)
  let rng = Random.State.make [| 9 |] in
  let sa = ref (N.initial_state a) and sb = ref (N.initial_state b) in
  let differ = ref false in
  for _ = 1 to 200 do
    let i = Array.init 3 (fun _ -> Random.State.bool rng) in
    let oa, sa' = N.step a !sa i in
    let ob, sb' = N.step b !sb i in
    if oa <> ob then differ := true;
    sa := sa';
    sb := sb'
  done;
  Alcotest.(check bool) "behaviours differ" true !differ

let test_suite_rows_well_formed () =
  List.iter
    (fun (r : Circuits.Suite.row) ->
      let latches =
        List.map (fun id -> N.net_name r.net id) r.net.N.latches
      in
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: latch %s exists" r.name l)
            true (List.mem l latches))
        r.x_latches;
      let _, _, cs, fcs, xcs = Circuits.Suite.profile r in
      Alcotest.(check int) (r.name ^ ": split adds up") cs (fcs + xcs);
      Alcotest.(check bool) (r.name ^ ": proper split") true
        (fcs > 0 && xcs > 0))
    (Circuits.Suite.table1 ())

let () =
  Alcotest.run "circuits"
    [ ( "families",
        [ Alcotest.test_case "counter period" `Quick test_counter_period;
          Alcotest.test_case "counter states" `Quick
            test_counter_reaches_all_states;
          Alcotest.test_case "gray code" `Quick test_gray_one_bit_changes;
          Alcotest.test_case "shift delay" `Quick test_shift_delay;
          Alcotest.test_case "pattern detector" `Quick test_pattern_detector;
          Alcotest.test_case "lfsr period" `Quick test_lfsr_maximal_period;
          Alcotest.test_case "lfsr hold" `Quick test_lfsr_hold;
          Alcotest.test_case "johnson" `Quick test_johnson_cycle;
          Alcotest.test_case "traffic safety" `Quick test_traffic_safety;
          Alcotest.test_case "arbiter invariants" `Quick
            test_arbiter_invariants;
          Alcotest.test_case "arbiter rotation" `Quick
            test_arbiter_no_starvation_when_idle;
          Alcotest.test_case "vending" `Quick test_vending;
          Alcotest.test_case "out-of-range parameters" `Quick
            test_out_of_range ] );
      ( "composition",
        [ Alcotest.test_case "parallel" `Quick test_parallel_composition ] );
      ( "random logic",
        [ Alcotest.test_case "deterministic" `Quick
            test_random_logic_deterministic;
          Alcotest.test_case "seeds differ" `Quick
            test_random_logic_seeds_differ ] );
      ( "suite",
        [ Alcotest.test_case "rows well-formed" `Quick
            test_suite_rows_well_formed ] ) ]
