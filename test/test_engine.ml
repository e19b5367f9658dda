(* Unit tests of the shared subset-construction engine on hand-built
   relation oracles: exact interning, each state's edge order, completion
   to the DCN/DCA sinks and guard protection — independent of the
   partitioned/monolithic flows that normally drive it. *)

module M = Bdd.Manager
module O = Bdd.Ops
module E = Equation

(* a two-state fixture: alphabet variables a and b, current-state variable
   c, next-state variable c'; states are the two c-literals *)
let fixture () =
  let man, a, b = Helpers.alphabet_man () in
  let c = M.new_var ~name:"c" man in
  let n = M.new_var ~name:"c'" man in
  (man, a, b, c, n)

(* an oracle over the fixture whose [relation] returns [rel s0] from Z0
   ([not c]) and [rel s1] from Z1 ([c]); the relations are built once and
   pinned in the construction's root set *)
let relation_oracle man c n ~accepting rel rs =
  let s0 = O.nvar_bdd man c and s1 = O.var_bdd man c in
  let r0 = rel s0 and r1 = rel s1 in
  List.iter (fun id -> ignore (M.Roots.add rs id : int))
    [ s0; s1; fst r0; snd r0; fst r1; snd r1 ];
  { E.Engine.start = s0;
    ns_cube = O.cube_of_vars man [ n ];
    rename = [ (n, c) ];
    relation = (fun zeta -> if zeta = s0 then r0 else r1);
    is_accepting = (fun zeta -> zeta = accepting) }

(* Z0 --a--> Z1, Z0 --!a--> DCA, Z1 --a--> Z0, Z1 --!a--> Z1; Q is zero
   everywhere, so DCN is never reached *)
let two_state_oracle man a c n =
  let av = O.var_bdd man a and n' = O.var_bdd man n in
  relation_oracle man c n ~accepting:(O.nvar_bdd man c)
    (fun zeta ->
      if zeta = O.nvar_bdd man c then (O.band man av n', M.zero)
      else (O.bxor man av n', M.zero))

(* a solution's arcs as (source, guard, destination), by source and then
   in each state's edge order *)
let arcs (x : Fsa.Automaton.t) =
  List.concat
    (List.mapi
       (fun s edges -> List.map (fun (g, d) -> (s, g, d)) edges)
       (Array.to_list x.edges))

let edges = Alcotest.(array (list (pair int int)))

let test_hand_oracle () =
  let man, a, _, c, n = fixture () in
  let x, n_core =
    E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n)
  in
  Alcotest.(check int) "core states" 2 n_core;
  (* the unreached DCN sink is omitted; the reached DCA follows the core *)
  Alcotest.(check int) "total states" 3 (Fsa.Automaton.num_states x);
  Alcotest.(check (array string)) "names" [| "Z0"; "Z1"; "DCA" |] x.names;
  Alcotest.(check (array bool)) "accepting" [| true; false; true |]
    x.accepting;
  Alcotest.(check int) "initial" 0 x.initial;
  (* each state's arcs in emission order, then the sink self-loop *)
  let av = O.var_bdd man a and na = O.nvar_bdd man a in
  Alcotest.check edges "edges"
    [| [ (av, 1); (na, 2) ]; [ (av, 0); (na, 1) ]; [ (M.one, 2) ] |]
    x.edges

(* the successor class Z1 reached from both states is interned once, and
   each state keeps its own arc to it *)
let test_duplicate_target_interned_once () =
  let man, a, _, c, n = fixture () in
  let oracle =
    relation_oracle man c n ~accepting:(O.nvar_bdd man c) (fun _ ->
        (O.var_bdd man n, M.zero))
  in
  let x, n_core = E.Engine.run man ~alphabet:[ a ] oracle in
  Alcotest.(check int) "two core states only" 2 n_core;
  Alcotest.(check int) "no sink used" 2 (Fsa.Automaton.num_states x);
  Alcotest.check edges "one arc per state, both to the interned state"
    [| [ (M.one, 1) ]; [ (M.one, 1) ] |] x.edges

(* Z0 has P = a ∧ c' and Q = ¬a ∧ b: its arcs are the successor class,
   then Q → DCN, then the rest → DCA; DCN precedes DCA among the sinks *)
let test_dcn_between_classes_and_dca () =
  let man, a, b, c, n = fixture () in
  let av = O.var_bdd man a and bv = O.var_bdd man b in
  let na = O.bnot man av in
  let oracle =
    relation_oracle man c n ~accepting:(O.nvar_bdd man c) (fun zeta ->
        if zeta = O.nvar_bdd man c then
          (O.band man av (O.var_bdd man n), O.band man na bv)
        else (O.var_bdd man n, M.zero))
  in
  let x, n_core = E.Engine.run man ~alphabet:[ a; b ] oracle in
  Alcotest.(check int) "core states" 2 n_core;
  Alcotest.(check (array string)) "sinks after the core, DCN first"
    [| "Z0"; "Z1"; "DCN"; "DCA" |] x.names;
  Alcotest.(check (array bool)) "DCN rejects, DCA accepts"
    [| true; false; false; true |] x.accepting;
  Alcotest.(check (list (triple int int int))) "arcs by source, DCN before DCA"
    [ (0, av, 1);
      (0, O.band man na bv, 2);
      (0, O.band man na (O.bnot man bv), 3);
      (1, M.one, 1);
      (2, M.one, 2);
      (3, M.one, 3) ]
    (arcs x)

(* the guards survive a collection after the construction's root set is
   released: the automaton still validates and the guards still
   evaluate *)
let test_guards_protected () =
  let man, a, _, c, n = fixture () in
  let x, _ = E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n) in
  ignore (M.collect man : int);
  ignore
    (Fsa.Automaton.make man ~alphabet:x.alphabet ~initial:x.initial
       ~accepting:x.accepting ~edges:x.edges ~names:x.names ()
      : Fsa.Automaton.t);
  Alcotest.(check int) "guard of Z0 under a=1 is true" M.one
    (O.cofactor_cube man (fst (List.hd x.edges.(0))) (O.var_bdd man a))

(* a guard on several arcs is protected (once) like any other: after a
   collection, rebuilding the two shared guards allocates no node, so
   both were still live *)
let test_shared_guard_protected () =
  let man, a, b, c, n = fixture () in
  let oracle =
    relation_oracle man c n ~accepting:(O.nvar_bdd man c) (fun zeta ->
        let ab = O.band man (O.var_bdd man a) (O.var_bdd man b) in
        let n' = O.var_bdd man n in
        if zeta = O.nvar_bdd man c then (O.band man ab n', M.zero)
        else (O.bdiff man ab n', M.zero))
  in
  let x, _ = E.Engine.run man ~alphabet:[ a; b ] oracle in
  let g = Array.of_list (List.map (fun (_, g, _) -> g) (arcs x)) in
  Alcotest.(check (array int)) "Z0 and Z1 share both guards"
    [| g.(0); g.(1); g.(0); g.(1); M.one |] g;
  ignore (M.collect man : int);
  let av = O.var_bdd man a and bv = O.var_bdd man b in
  let live = M.live_nodes man in
  let ab = O.band man av bv in
  let not_ab = O.bnot man ab in
  Alcotest.(check int) "no node rebuilt" live (M.live_nodes man);
  Alcotest.(check (array int)) "the same guards" [| ab; not_ab |]
    [| g.(0); g.(1) |]

(* the worklist CSF on an engine-built solution agrees with the sweep
   reference, and reports its deletions *)
let test_worklist_csf_on_arena () =
  let net =
    Circuits.Generators.random_logic ~seed:7 ~inputs:2 ~outputs:1 ~latches:3
      ~levels:2 ()
  in
  let _, p = E.Split.problem net ~x_latches:[ "x1"; "x2" ] in
  let x, _ = E.Partitioned.solve_arena p in
  let worklist, deletions = E.Csf.of_arena p x in
  let sweep = Reference.Csf.csf_sweep p x in
  Alcotest.(check bool) "deletions non-negative" true (deletions >= 0);
  Alcotest.(check int) "same state count"
    (E.Csf.num_states sweep) (E.Csf.num_states worklist);
  Alcotest.(check bool) "same language" true
    (Fsa.Language.equivalent worklist sweep)

(* A hand-built solution over a problem's alphabet, with one input [u]
   and one output [v]: A (initial) goes to B under [v] and to C under
   [not v]; B goes to D under [u] only, so for [not u] no output leads
   anywhere and the worklist deletes B; C and D loop on [one], and C
   also goes to E, which is not accepting, under [u and v]. D is
   accepting and progressive but reachable only through B, so the CSF
   drops it along with B and E. *)
let test_csf_drops_states_behind_deleted_ones () =
  let net =
    Circuits.Generators.random_logic ~seed:7 ~inputs:2 ~outputs:1 ~latches:3
      ~levels:2 ()
  in
  let _, p = E.Split.problem net ~x_latches:[ "x1"; "x2" ] in
  let man = p.E.Problem.man in
  let u = O.var_bdd man (List.hd p.E.Problem.u_vars) in
  let v = O.var_bdd man (List.hd p.E.Problem.v_vars) in
  let x =
    Fsa.Automaton.make man ~alphabet:(E.Problem.alphabet p) ~initial:0
      ~accepting:[| true; true; true; true; false |]
      ~edges:
        [| [ (v, 1); (O.bnot man v, 2) ];
           [ (u, 3) ];
           [ (M.one, 2); (O.band man u v, 4) ];
           [ (M.one, 3) ];
           [ (M.one, 4) ] |]
      ~names:[| "A"; "B"; "C"; "D"; "E" |]
      ()
  in
  let csf, deletions = E.Csf.of_arena p x in
  Alcotest.(check int) "B deleted" 1 deletions;
  Alcotest.(check (array string)) "D dropped" [| "A"; "C" |] csf.names;
  let alive = [| true; false; true; true; false |] in
  let expected = Fsa.Ops.trim (Fsa.Ops.restrict x alive) in
  Alcotest.(check int) "initial" expected.initial csf.initial;
  Alcotest.(check (array string)) "names" expected.names csf.names;
  Alcotest.(check (array bool)) "accepting" expected.accepting csf.accepting;
  Alcotest.check edges "edges" expected.edges csf.edges

(* both flows complete every core state: its guards are pairwise disjoint
   with disjunction [one]; the monolithic flow never reaches DCN; some
   seed must reach a sink. Every solution passes [Fsa.Automaton.make]'s
   validation after a collection (its guards are protected) *)
let test_complete_core_states () =
  let sinks_seen = ref 0 in
  for seed = 1 to 12 do
    let net =
      Circuits.Generators.random_logic ~seed ~inputs:2 ~outputs:1 ~latches:3
        ~levels:2 ()
    in
    let _, p = E.Split.problem net ~x_latches:[ "x1"; "x2" ] in
    List.iter
      (fun (flow, ((x : Fsa.Automaton.t), n_core)) ->
        let man = x.man in
        (* collect first: [make] pins every guard it validates *)
        ignore (M.collect man : int);
        (match
           Fsa.Automaton.make man ~alphabet:x.alphabet ~initial:x.initial
             ~accepting:x.accepting ~edges:x.edges ~names:x.names ()
         with
         | _ -> ()
         | exception Invalid_argument msg ->
           Alcotest.failf "%s flow, seed %d: %s" flow seed msg);
        for s = 0 to n_core - 1 do
          let guards = List.map fst x.edges.(s) in
          let rec disjoint = function
            | [] -> ()
            | g :: rest ->
              List.iter
                (fun h ->
                  if O.band man g h <> M.zero then
                    Alcotest.failf "%s flow, seed %d: Z%d's guards overlap"
                      flow seed s)
                rest;
              disjoint rest
          in
          disjoint guards;
          if O.disj man guards <> M.one then
            Alcotest.failf "%s flow, seed %d: Z%d is not complete" flow seed s
        done;
        if flow = "monolithic" && Array.mem "DCN" x.names then
          Alcotest.failf "monolithic flow, seed %d: a DCN state" seed;
        if Fsa.Automaton.num_states x > n_core then incr sinks_seen)
      [ ("partitioned", E.Partitioned.solve_arena p);
        ("monolithic", E.Monolithic.solve_arena p) ]
  done;
  Alcotest.(check bool) "some solution has sink self-loops" true
    (!sinks_seen > 0)

let () =
  Alcotest.run "engine"
    [ ( "oracle",
        [ Alcotest.test_case "hand-built two-state oracle" `Quick
            test_hand_oracle;
          Alcotest.test_case "duplicate targets interned once" `Quick
            test_duplicate_target_interned_once;
          Alcotest.test_case "DCN arc between the classes and DCA" `Quick
            test_dcn_between_classes_and_dca;
          Alcotest.test_case "guards protected across collection" `Quick
            test_guards_protected;
          Alcotest.test_case "shared guard protected across collection"
            `Quick test_shared_guard_protected ] );
      ( "csf",
        [ Alcotest.test_case "worklist matches sweep on an arena" `Quick
            test_worklist_csf_on_arena;
          Alcotest.test_case "both flows complete every core state" `Quick
            test_complete_core_states;
          Alcotest.test_case "states behind a deleted state dropped" `Quick
            test_csf_drops_states_behind_deleted_ones ] ) ]
