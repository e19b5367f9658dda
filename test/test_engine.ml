(* Unit tests of the shared subset-construction engine on hand-built
   relation oracles: exact interning, arc emission order, completion to
   the DCN/DCA sinks and guard protection — independent of the
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

let test_hand_oracle () =
  let man, a, _, c, n = fixture () in
  let arena, n_core =
    E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n)
  in
  Alcotest.(check int) "core states" 2 n_core;
  (* the unreached DCN sink is omitted; the reached DCA follows the core *)
  Alcotest.(check int) "total states" 3 (E.Engine.num_states arena);
  Alcotest.(check (array string)) "names"
    [| "Z0"; "Z1"; "DCA" |] arena.E.Engine.names;
  Alcotest.(check (array bool)) "accepting"
    [| true; false; true |] arena.E.Engine.accepting;
  Alcotest.(check int) "initial" 0 arena.E.Engine.initial;
  (* arcs in emission order: Z0's arcs, Z1's arcs, the sink self-loop *)
  Alcotest.(check int) "arc count" 5 (E.Engine.num_arcs arena);
  Alcotest.(check (array int)) "arc sources"
    [| 0; 0; 1; 1; 2 |] arena.E.Engine.arc_src;
  Alcotest.(check (array int)) "arc destinations"
    [| 1; 2; 0; 1; 2 |] arena.E.Engine.arc_dst;
  let av = O.var_bdd man a and na = O.nvar_bdd man a in
  Alcotest.(check (array int)) "arc guards"
    [| av; na; av; na; M.one |] arena.E.Engine.arc_guard

(* the successor class Z1 reached from both states is interned once, and
   each state keeps its own arc to it *)
let test_duplicate_target_interned_once () =
  let man, a, _, c, n = fixture () in
  let oracle =
    relation_oracle man c n ~accepting:(O.nvar_bdd man c) (fun _ ->
        (O.var_bdd man n, M.zero))
  in
  let arena, n_core = E.Engine.run man ~alphabet:[ a ] oracle in
  Alcotest.(check int) "two core states only" 2 n_core;
  Alcotest.(check int) "no sink used" 2 (E.Engine.num_states arena);
  Alcotest.(check (array int)) "both arcs hit the interned state"
    [| 1; 1 |] arena.E.Engine.arc_dst;
  Alcotest.(check (array int)) "one arc per state" [| 0; 1 |]
    arena.E.Engine.arc_src

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
  let arena, n_core = E.Engine.run man ~alphabet:[ a; b ] oracle in
  Alcotest.(check int) "core states" 2 n_core;
  Alcotest.(check (array string)) "sinks after the core, DCN first"
    [| "Z0"; "Z1"; "DCN"; "DCA" |] arena.E.Engine.names;
  Alcotest.(check (array bool)) "DCN rejects, DCA accepts"
    [| true; false; false; true |] arena.E.Engine.accepting;
  Alcotest.(check (array int)) "arc sources"
    [| 0; 0; 0; 1; 2; 3 |] arena.E.Engine.arc_src;
  Alcotest.(check (array int)) "arc destinations"
    [| 1; 2; 3; 1; 2; 3 |] arena.E.Engine.arc_dst;
  Alcotest.(check (array int)) "arc guards"
    [| av; O.band man na bv; O.band man na (O.bnot man bv); M.one; M.one;
       M.one |]
    arena.E.Engine.arc_guard

(* arena guards survive a collection after the construction's root set is
   released: to_automaton still validates and the guards still evaluate *)
let test_guards_protected () =
  let man, a, _, c, n = fixture () in
  let arena, _ = E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n) in
  ignore (M.collect man : int);
  let x = E.Engine.to_automaton arena in
  Alcotest.(check int) "guard of Z0 under a=1 is true" M.one
    (O.cofactor_cube man
       (fst (List.hd x.Fsa.Automaton.edges.(0)))
       (O.var_bdd man a))

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
  let arena, _ = E.Engine.run man ~alphabet:[ a; b ] oracle in
  let g = arena.E.Engine.arc_guard in
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

(* the automaton keeps the arena's states in order and each state's arcs
   in emission order *)
let test_to_automaton_preserves_arena () =
  let man, a, _, c, n = fixture () in
  let arena, _ = E.Engine.run man ~alphabet:[ a ] (two_state_oracle man a c n) in
  let x = E.Engine.to_automaton arena in
  Alcotest.(check int) "state count preserved"
    (E.Engine.num_states arena) (Fsa.Automaton.num_states x);
  Alcotest.(check int) "initial preserved" arena.E.Engine.initial
    x.Fsa.Automaton.initial;
  let arcs =
    List.concat
      (List.mapi
         (fun s edges -> List.map (fun (g, d) -> (s, g, d)) edges)
         (Array.to_list x.Fsa.Automaton.edges))
  in
  Alcotest.(check (list (triple int int int))) "arcs in emission order"
    (List.init (E.Engine.num_arcs arena) (fun i ->
         ( arena.E.Engine.arc_src.(i),
           arena.E.Engine.arc_guard.(i),
           arena.E.Engine.arc_dst.(i) )))
    arcs;
  Alcotest.(check (array bool)) "accepting preserved"
    arena.E.Engine.accepting x.Fsa.Automaton.accepting;
  Alcotest.(check (array string)) "names preserved"
    arena.E.Engine.names x.Fsa.Automaton.names

(* the worklist CSF on an engine-built arena agrees with the sweep
   reference on the converted automaton, and reports its deletions *)
let test_worklist_csf_on_arena () =
  let net =
    Circuits.Generators.random_logic ~seed:7 ~inputs:2 ~outputs:1 ~latches:3
      ~levels:2 ()
  in
  let _, p = E.Split.problem net ~x_latches:[ "x1"; "x2" ] in
  let arena, _ = E.Partitioned.solve_arena p in
  let worklist, deletions = E.Csf.of_arena p arena in
  let sweep = Reference.Csf.csf_sweep p (E.Engine.to_automaton arena) in
  Alcotest.(check bool) "deletions non-negative" true (deletions >= 0);
  Alcotest.(check int) "same state count"
    (E.Csf.num_states sweep) (E.Csf.num_states worklist);
  Alcotest.(check bool) "same language" true
    (Fsa.Language.equivalent worklist sweep)

(* both flows emit arcs by ascending source, the sink self-loops last (the
   [Engine.arena] invariant the worklist CSF relies on to take a state's
   arcs as one index range); every core state is completed, its guards
   pairwise disjoint with disjunction [one]; the monolithic flow never
   reaches DCN; some seed must reach a sink *)
let test_arcs_by_source () =
  let sinks_seen = ref 0 in
  for seed = 1 to 12 do
    let net =
      Circuits.Generators.random_logic ~seed ~inputs:2 ~outputs:1 ~latches:3
        ~levels:2 ()
    in
    let _, p = E.Split.problem net ~x_latches:[ "x1"; "x2" ] in
    List.iter
      (fun (flow, (arena, n_core)) ->
        let man = arena.E.Engine.man in
        let src = arena.E.Engine.arc_src in
        for i = 1 to Array.length src - 1 do
          if src.(i) < src.(i - 1) then
            Alcotest.failf "%s flow, seed %d: arc %d's source %d follows %d"
              flow seed i src.(i) src.(i - 1)
        done;
        for s = 0 to n_core - 1 do
          let guards = ref [] in
          Array.iteri
            (fun i g -> if src.(i) = s then guards := g :: !guards)
            arena.E.Engine.arc_guard;
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
          disjoint !guards;
          if O.disj man !guards <> M.one then
            Alcotest.failf "%s flow, seed %d: Z%d is not complete" flow seed s
        done;
        if flow = "monolithic" && Array.mem "DCN" arena.E.Engine.names then
          Alcotest.failf "monolithic flow, seed %d: a DCN state" seed;
        if E.Engine.num_states arena > n_core then incr sinks_seen)
      [ ("partitioned", E.Partitioned.solve_arena p);
        ("monolithic", E.Monolithic.solve_arena p) ]
  done;
  Alcotest.(check bool) "some arena has sink self-loops" true
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
            `Quick test_shared_guard_protected;
          Alcotest.test_case "to_automaton preserves the arena" `Quick
            test_to_automaton_preserves_arena ] );
      ( "csf",
        [ Alcotest.test_case "worklist matches sweep on an arena" `Quick
            test_worklist_csf_on_arena;
          Alcotest.test_case "both flows emit arcs by source" `Quick
            test_arcs_by_source ] ) ]
