(* Tests for the fsa library and for the explicit Algorithm 1 operators the
   tests keep as reference code (Reference.Ops, Reference.Language): each
   operator is validated against bounded language enumeration on hand-built
   automata, and the paper's Theorem 1 (completion and determinization
   commute) is checked as a QCheck property on random automata. Fsa.Language
   compares deterministic automata over one alphabet; the cases that compare
   nondeterministic ones go through Reference.Language, which determinizes
   them first. *)

module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton
module Ops = Fsa.Ops
module L = Fsa.Language
module Ref_ops = Reference.Ops
module Ref_lang = Reference.Language

(* --- fixtures ------------------------------------------------------------- *)

(* A manager with two alphabet variables a (0) and b (1). *)
let setup = Helpers.alphabet_man

(* 2-state automaton: accepts words with an even number of symbols where
   a = 1 (over alphabet {a, b}); all states accepting = prefix-closed. *)
let even_a man a =
  let va = O.var_bdd man a and na = O.nvar_bdd man a in
  A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true; false |]
    ~edges:[| [ (va, 1); (na, 0) ]; [ (va, 0); (na, 1) ] |]
    ()

(* Nondeterministic: guesses when the last-but-one symbol has a = 1. *)
let nondet_a man a =
  let va = O.var_bdd man a in
  A.make man ~alphabet:[ a ] ~initial:0
    ~accepting:[| false; false; true |]
    ~edges:[| [ (M.one, 0); (va, 1) ]; [ (M.one, 2) ]; [] |]
    ()

(* An incomplete automaton: state 1 has no outgoing edges. *)
let incomplete man a =
  let va = O.var_bdd man a and na = O.nvar_bdd man a in
  A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true; true |]
    ~edges:[| [ (va, 1); (na, 0) ]; [] |]
    ()

let words_set t ~max_len = Ref_lang.accepted_words t ~max_len

(* --- basic structure ------------------------------------------------------ *)

let test_make_validation () =
  let man, a, _ = setup () in
  let bad_guard () =
    ignore
      (A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true |]
         ~edges:[| [ (M.zero, 0) ] |] ()
        : A.t)
  in
  Alcotest.check_raises "zero guard rejected"
    (Invalid_argument "Automaton.make: zero guard") bad_guard;
  let escape () =
    let c = M.new_var man in
    ignore
      (A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true |]
         ~edges:[| [ (O.var_bdd man c, 0) ] |] ()
        : A.t)
  in
  Alcotest.check_raises "guard outside alphabet"
    (Invalid_argument "Automaton.make: guard escapes the alphabet") escape

let test_determinism_flags () =
  let man, a, _ = setup () in
  Alcotest.(check bool) "even_a det" true (A.is_deterministic (even_a man a));
  Alcotest.(check bool) "even_a complete" true (A.is_complete (even_a man a));
  Alcotest.(check bool) "nondet not det" false
    (A.is_deterministic (nondet_a man a));
  Alcotest.(check bool) "incomplete flagged" false
    (A.is_complete (incomplete man a))

let test_accepts () =
  let man, a, _ = setup () in
  let t = even_a man a in
  let sym v = O.cube_of_literals man [ (a, v) ] in
  Alcotest.(check bool) "empty word accepted" true (Ref_lang.accepts t []);
  Alcotest.(check bool) "one a rejected" false
    (Ref_lang.accepts t [ sym true ]);
  Alcotest.(check bool) "two a accepted" true
    (Ref_lang.accepts t [ sym true; sym true ]);
  Alcotest.(check bool) "b irrelevant" true
    (Ref_lang.accepts t [ sym false; sym true; sym true ])

(* --- the Algorithm 1 operators ------------------------------------------- *)

let test_complete_preserves_language () =
  let man, a, _ = setup () in
  let t = incomplete man a in
  let c = Ops.complete t in
  Alcotest.(check bool) "complete" true (A.is_complete c);
  Alcotest.(check bool) "language preserved" true (L.equivalent t c);
  Alcotest.(check int) "one extra state" (A.num_states t + 1) (A.num_states c)

let test_complete_idempotent_on_complete () =
  let man, a, _ = setup () in
  let t = even_a man a in
  Alcotest.(check int) "no sink added" (A.num_states t)
    (A.num_states (Ops.complete t))

let test_complement_words () =
  let man, a, _ = setup () in
  let t = even_a man a in
  let c = Ref_ops.complement t in
  (* over the 1-var alphabet, words of length <= 2: every word is in exactly
     one of the two languages *)
  let all_words =
    let syms = Ref_lang.symbols t in
    [] :: List.concat_map (fun s -> [ [ s ] ]) syms
    @ List.concat_map (fun s -> List.map (fun s' -> [ s; s' ]) syms) syms
  in
  List.iter
    (fun w ->
      Alcotest.(check bool) "complement partitions words" true
        (Ref_lang.accepts t w <> Ref_lang.accepts c w))
    all_words

let test_complement_requires_det () =
  let man, a, _ = setup () in
  Alcotest.check_raises "nondet rejected"
    (Invalid_argument "Ops.complement: automaton not deterministic")
    (fun () -> ignore (Ref_ops.complement (nondet_a man a) : A.t))

let test_determinize () =
  let man, a, _ = setup () in
  let t = nondet_a man a in
  let d = Ref_ops.determinize t in
  Alcotest.(check bool) "deterministic" true (A.is_deterministic d);
  Alcotest.(check bool) "language preserved" true
    (words_set t ~max_len:4 = words_set d ~max_len:4)

let test_product_intersects () =
  let man, a, b = setup () in
  let ta = even_a man a in
  let tb = even_a man b in
  (* expand each to the common alphabet first *)
  let ta2 = Ref_ops.change_support ta [ a; b ] in
  let tb2 = Ref_ops.change_support tb [ a; b ] in
  let p = Ref_ops.product ta2 tb2 in
  let syms = Ref_lang.symbols p in
  List.iter
    (fun w ->
      Alcotest.(check bool) "product accepts iff both" true
        (Ref_lang.accepts p w = (Ref_lang.accepts ta2 w && Ref_lang.accepts tb2 w)))
    ([ [] ] @ List.map (fun s -> [ s ]) syms
    @ List.concat_map (fun s -> List.map (fun s' -> [ s; s' ]) syms) syms)

let test_hide_projects () =
  let man, a, b = setup () in
  (* automaton over (a,b) that requires a = b at every step *)
  let eq = O.bxnor man (O.var_bdd man a) (O.var_bdd man b) in
  let t =
    A.make man ~alphabet:[ a; b ] ~initial:0 ~accepting:[| true |]
      ~edges:[| [ (eq, 0) ] |] ()
  in
  (* Support(t, {a}) hides b *)
  let h = Ref_ops.change_support t [ a ] in
  Alcotest.(check (list int)) "alphabet shrunk" [ a ] h.A.alphabet;
  (* after hiding b, any a-word is accepted *)
  let sym v = O.cube_of_literals man [ (a, v) ] in
  Alcotest.(check bool) "projection accepts" true
    (Ref_lang.accepts h [ sym true; sym false ])

let test_expand_cylinder () =
  let man, a, b = setup () in
  let t = even_a man a in
  (* Support(t, {a, b}) expands by b *)
  let e = Ref_ops.change_support t [ a; b ] in
  let sym va vb = O.cube_of_literals man [ (a, va); (b, vb) ] in
  Alcotest.(check bool) "b free" true
    (Ref_lang.accepts e [ sym true true; sym true false ]);
  Alcotest.(check bool) "still counts a" false
    (Ref_lang.accepts e [ sym true true; sym false false ])

let test_prefix_close () =
  let man, a, _ = setup () in
  (* accepts the empty word and words of length two, but not length one:
     not prefix-closed *)
  let t =
    A.make man ~alphabet:[ a ] ~initial:0
      ~accepting:[| true; false; true |]
      ~edges:[| [ (M.one, 1) ]; [ (M.one, 2) ]; [] |]
      ()
  in
  let pc = Ref_ops.prefix_close t in
  (* the largest prefix-closed sub-language is {ε} *)
  Alcotest.(check bool) "epsilon kept" true (Ref_lang.accepts pc []);
  let sym = O.cube_of_literals man [ (a, true) ] in
  Alcotest.(check bool) "length-2 word dropped" false
    (Ref_lang.accepts pc [ sym; sym ]);
  (* prefix-closedness: every prefix of an accepted word is accepted *)
  let words = words_set pc ~max_len:3 in
  List.iter
    (fun w ->
      match List.rev w with
      | [] -> ()
      | _ :: rev_rest ->
        Alcotest.(check bool) "prefix accepted" true
          (Ref_lang.accepts pc (List.rev rev_rest)))
    words

let test_prefix_close_empty () =
  let man, a, _ = setup () in
  let t =
    A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| false |]
      ~edges:[| [ (M.one, 0) ] |] ()
  in
  Alcotest.(check bool) "empty language" true
    (A.is_empty_language (Ref_ops.prefix_close t))

let test_progressive () =
  let man, a, b = setup () in
  (* u-input = a, output = b. State 1 only moves when a=1: not
     input-progressive, so it must be removed; state 0 then loses its
     a=0 edge into it but keeps a self-loop for all a. *)
  let va = O.var_bdd man a in
  let t =
    A.make man ~alphabet:[ a; b ] ~initial:0 ~accepting:[| true; true |]
      ~edges:[| [ (M.one, 0); (O.bnot man va, 1) ]; [ (va, 1) ] |]
      ()
  in
  let pr = Ref_ops.progressive t ~inputs:[ a ] in
  Alcotest.(check int) "state removed" 1 (A.num_states pr);
  (* a progressive automaton: ∀u ∃v defined at every state *)
  let ok s =
    O.exists man (O.cube_of_vars man [ b ]) (A.defined_guard pr s) = M.one
  in
  Alcotest.(check bool) "remaining states progressive" true
    (List.for_all ok (List.init (A.num_states pr) Fun.id))

let test_progressive_empty () =
  let man, a, b = setup () in
  let va = O.var_bdd man a in
  let t =
    A.make man ~alphabet:[ a; b ] ~initial:0 ~accepting:[| true |]
      ~edges:[| [ (va, 0) ] |] ()
  in
  Alcotest.(check bool) "initial not progressive -> empty" true
    (A.is_empty_language (Ref_ops.progressive t ~inputs:[ a ]))

let test_trim () =
  let man, a, _ = setup () in
  let t =
    A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true; true; true |]
      ~edges:[| [ (M.one, 0) ]; [ (M.one, 2) ]; [] |]
      ()
  in
  Alcotest.(check int) "unreachable dropped" 1 (A.num_states (Ops.trim t))

(* [restrict] and [trim] keep the surviving states in their original
   relative order, on their own: every solver caller composes the two,
   so a renumbering in one could hide behind the other. Five states with
   distinct names and acceptance, and edges to kept and dropped states. *)
let numbering_fixture () =
  let man, a, _ = setup () in
  let va = O.var_bdd man a and na = O.nvar_bdd man a in
  ( man,
    A.make man ~alphabet:[ a ] ~initial:2
      ~accepting:[| true; false; false; true; true |]
      ~edges:
        [| [ (va, 1) ];
           [ (M.one, 1) ];
           [ (va, 4); (na, 0) ];
           [ (va, 1); (na, 2) ];
           [ (va, 3); (na, 4) ] |]
      ~names:[| "s0"; "s1"; "s2"; "s3"; "s4" |] (),
    va,
    na )

let test_restrict_numbering () =
  let _, t, va, na = numbering_fixture () in
  let r = Ops.restrict t [| true; false; true; false; true |] in
  Alcotest.(check (array string)) "kept states in order"
    [| "s0"; "s2"; "s4" |] r.A.names;
  Alcotest.(check (array bool)) "acceptance follows the states"
    [| true; false; true |] r.A.accepting;
  Alcotest.(check int) "initial renumbered" 1 r.A.initial;
  Alcotest.(check (array (list (pair int int))))
    "edges to kept states, renumbered, in order"
    [| []; [ (va, 2); (na, 0) ]; [ (na, 2) ] |]
    r.A.edges

let test_restrict_initial_dropped () =
  let _, t, _, _ = numbering_fixture () in
  Alcotest.check_raises "initial state not kept"
    (Invalid_argument "Ops.restrict: initial state not kept") (fun () ->
      ignore (Ops.restrict t [| true; true; false; true; true |] : A.t))

let test_trim_numbering () =
  let _, t, va, na = numbering_fixture () in
  (* from s4, with s2's edge into s0 dropped, s0 is the one state left
     unreachable *)
  let t = { t with A.initial = 4; edges = Array.copy t.A.edges } in
  t.A.edges.(2) <- [ (va, 4) ];
  let r = Ops.trim t in
  Alcotest.(check (array string)) "reachable states in order"
    [| "s1"; "s2"; "s3"; "s4" |] r.A.names;
  Alcotest.(check int) "initial renumbered" 3 r.A.initial;
  Alcotest.(check (array (list (pair int int))))
    "edges renumbered in order"
    [| [ (M.one, 0) ]; [ (va, 3) ]; [ (va, 0); (na, 1) ]; [ (va, 2); (na, 3) ] |]
    r.A.edges

(* --- minimization --------------------------------------------------------- *)

let test_minimize () =
  let man, a, _ = setup () in
  (* an even_a machine with a redundant duplicated state *)
  let va = O.var_bdd man a and na = O.nvar_bdd man a in
  let t =
    A.make man ~alphabet:[ a ] ~initial:0
      ~accepting:[| true; false; false |]
      ~edges:
        [| [ (va, 1); (na, 0) ];
           [ (va, 0); (na, 2) ];
           [ (va, 0); (na, 1) ] |]
      ()
  in
  let m = Fsa.Minimize.minimize t in
  Alcotest.(check int) "two classes" 2 (A.num_states m);
  Alcotest.(check bool) "language preserved" true (L.equivalent t m);
  Alcotest.(check int) "idempotent" 2
    (A.num_states (Fsa.Minimize.minimize m));
  let nondet =
    A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| false; true |]
      ~edges:[| [ (va, 0); (va, 1) ]; [] |]
      ()
  in
  Alcotest.check_raises "minimize rejects nondet"
    (Invalid_argument "Minimize.minimize: not deterministic") (fun () ->
      ignore (Fsa.Minimize.minimize nondet : A.t))

(* --- language queries ------------------------------------------------------ *)

let test_subset_and_counterexample () =
  let man, a, _ = setup () in
  let t = even_a man a in
  let everything =
    A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true |]
      ~edges:[| [ (M.one, 0) ] |] ()
  in
  Alcotest.(check bool) "even_a ⊆ everything" true (L.subset t everything);
  Alcotest.(check bool) "everything ⊄ even_a" false (L.subset everything t);
  (match L.counterexample everything t with
   | None -> Alcotest.fail "expected counterexample"
   | Some w ->
     Alcotest.(check bool) "witness in everything" true
       (Ref_lang.accepts everything w);
     Alcotest.(check bool) "witness not in even_a" false (Ref_lang.accepts t w))

let test_equivalent_reflexive () =
  let man, a, _ = setup () in
  let t = nondet_a man a in
  Alcotest.(check bool) "self-equivalent" true
    (Ref_lang.equivalent t (Ref_ops.determinize t))

(* Fsa.Language compares deterministic automata over one alphabet only:
   anything else is an error, not a silent determinization *)
let test_language_rejects_nondet () =
  let man, a, _ = setup () in
  let det = even_a man a and nondet = nondet_a man a in
  let rejected = Invalid_argument "Language: automaton not deterministic" in
  Alcotest.check_raises "first argument" rejected (fun () ->
      ignore (L.equivalent nondet det : bool));
  Alcotest.check_raises "second argument" rejected (fun () ->
      ignore (L.subset det nondet : bool))

let test_language_rejects_alphabets () =
  let man, a, b = setup () in
  Alcotest.check_raises "distinct alphabets"
    (Invalid_argument "Language: distinct alphabets") (fun () ->
      ignore (L.counterexample (even_a man a) (even_a man b) : int list option))

(* --- From_network ---------------------------------------------------------- *)

let test_from_network () =
  let man = M.create () in
  let net = Circuits.Generators.counter 2 in
  let iv = M.new_vars ~prefix:"i" man 1 in
  let ov = M.new_vars ~prefix:"o" man 1 in
  let t =
    Fsa.From_network.of_netlist man ~input_vars:iv ~output_vars:ov net
  in
  Alcotest.(check int) "4 reachable states" 4 (A.num_states t);
  Alcotest.(check bool) "all accepting" true
    (Array.for_all Fun.id t.A.accepting);
  Alcotest.(check bool) "deterministic" true (A.is_deterministic t);
  (* incomplete: the automaton only defines the (i,o) pairs the circuit
     produces *)
  Alcotest.(check bool) "incomplete" false (A.is_complete t);
  (* simulation cross-check: a trace of the circuit is a word *)
  let sym i o =
    O.cube_of_literals man [ (List.hd iv, i); (List.hd ov, o) ]
  in
  (* en=1 twice from 00: outputs carry=0 then 0 *)
  Alcotest.(check bool) "trace accepted" true
    (Ref_lang.accepts t [ sym true false; sym true false ]);
  Alcotest.(check bool) "wrong output rejected" false
    (Ref_lang.accepts t [ sym true true ])

let test_normalize_edges () =
  let man, a, _ = setup () in
  let va = O.var_bdd man a and na = O.nvar_bdd man a in
  let t =
    A.make man ~alphabet:[ a ] ~initial:0 ~accepting:[| true |]
      ~edges:[| [ (va, 0); (na, 0) ] |] ()
  in
  let n = Ops.normalize_edges t in
  Alcotest.(check int) "parallel edges merged" 1 (List.length n.A.edges.(0));
  (match n.A.edges.(0) with
   | [ (g, 0) ] -> Alcotest.(check int) "merged guard is true" M.one g
   | _ -> Alcotest.fail "unexpected edges");
  Alcotest.(check bool) "language preserved" true (L.equivalent t n)

let test_successors_and_names () =
  let man, a, _ = setup () in
  let t = even_a man a in
  let sym = O.cube_of_literals man [ (a, true) ] in
  Alcotest.(check (list int)) "successor under a" [ 1 ]
    (Ref_lang.successors t 0 sym);
  Alcotest.(check bool) "summary mentions determinism" true
    (let s = Fsa.Print.summary t in
     String.length s > 0)

let test_empty_automaton () =
  let man, a, _ = setup () in
  let e = A.empty man ~alphabet:[ a ] in
  Alcotest.(check bool) "empty language" true (A.is_empty_language e);
  Alcotest.(check bool) "empty ⊆ anything" true (L.subset e (even_a man a));
  Alcotest.(check bool) "completing keeps it empty" true
    (A.is_empty_language (Ops.complete e))

let test_change_support_noop () =
  let man, a, _ = setup () in
  let t = even_a man a in
  let same = Ref_ops.change_support t [ a ] in
  Alcotest.(check bool) "identity support change" true (L.equivalent t same)

let test_pp_and_dot () =
  let man, a, _ = setup () in
  let t = even_a man a in
  let s = Format.asprintf "%a" Fsa.Print.pp t in
  Alcotest.(check bool) "pp nonempty" true (String.length s > 0);
  let dot = Fsa.Print.to_dot t in
  Alcotest.(check bool) "dot wellformed" true
    (String.sub dot 0 8 = "digraph " && String.length dot > 50)

(* --- QCheck: random automata ----------------------------------------------- *)

(* Generator of random automata descriptions over a 2-variable alphabet.
   Guards come from random 2-variable truth tables (1..15). *)
type auto_desc = {
  d_states : int;
  d_accepting : bool list;
  d_edges : (int * int * int) list; (* src, truth-table 1..15, dest *)
}

let auto_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun d_states ->
  list_size (return d_states) bool >>= fun d_accepting ->
  list_size (int_range 0 (2 * d_states))
    (triple (int_bound (d_states - 1)) (int_range 1 15)
       (int_bound (d_states - 1)))
  >>= fun d_edges -> return { d_states; d_accepting; d_edges }

let auto_print d =
  Printf.sprintf "states=%d acc=[%s] edges=[%s]" d.d_states
    (String.concat ";" (List.map string_of_bool d.d_accepting))
    (String.concat ";"
       (List.map
          (fun (s, tt, t) -> Printf.sprintf "%d-%d->%d" s tt t)
          d.d_edges))

let auto_arb = QCheck.make ~print:auto_print auto_gen

let build_auto man a b d =
  let guard_of_tt tt =
    (* bit k of tt = value on assignment (a = k land 1, b = k lsr 1) *)
    O.disj man
      (List.filteri (fun k _ -> tt land (1 lsl k) <> 0)
         (List.init 4 (fun k ->
              O.cube_of_literals man
                [ (a, k land 1 = 1); (b, k lsr 1 = 1) ])))
  in
  let edges = Array.make d.d_states [] in
  List.iter
    (fun (s, tt, t) -> edges.(s) <- (guard_of_tt tt, t) :: edges.(s))
    d.d_edges;
  A.make man ~alphabet:[ a; b ] ~initial:0
    ~accepting:(Array.of_list d.d_accepting)
    ~edges ()

(* Regression: with every state accepting (or every state rejecting) the
   initial acceptance partition has one class, not two; the refinement
   used to count two, mistake its first split for stability, and stop a
   pass early — quotients computed against the never-rechecked partition
   could change the language. *)
let prop_theorem1 =
  QCheck.Test.make ~count:150
    ~name:"Theorem 1: Complete(Det(A)) = Det(Complete(A))" auto_arb (fun d ->
      let man, a, b = setup () in
      let t = build_auto man a b d in
      let lhs = Ops.complete (Ref_ops.determinize t) in
      let rhs = Ref_ops.determinize (Ops.complete t) in
      L.equivalent lhs rhs
      && words_set lhs ~max_len:3 = words_set rhs ~max_len:3)

let prop_determinize_preserves =
  QCheck.Test.make ~count:150 ~name:"determinize preserves the language"
    auto_arb (fun d ->
      let man, a, b = setup () in
      let t = build_auto man a b d in
      let dt = Ref_ops.determinize t in
      A.is_deterministic dt && words_set t ~max_len:3 = words_set dt ~max_len:3)

let prop_complete_preserves =
  QCheck.Test.make ~count:150 ~name:"complete preserves the language"
    auto_arb (fun d ->
      let man, a, b = setup () in
      let t = build_auto man a b d in
      words_set t ~max_len:3 = words_set (Ops.complete t) ~max_len:3)

let prop_complement_involutive =
  QCheck.Test.make ~count:150 ~name:"complement is involutive" auto_arb
    (fun d ->
      let man, a, b = setup () in
      let t = Ops.complete (Ref_ops.determinize (build_auto man a b d)) in
      let cc = Ref_ops.complement (Ref_ops.complement t) in
      L.equivalent t cc)

let prop_complement_commutes_with_complete =
  (* the appendix's "trivial proposition": completion commutes with
     complementation (on the completed side, complementation requires
     completeness, so compare complement∘complete with
     complete-then-complement on an already determinized automaton) *)
  QCheck.Test.make ~count:150
    ~name:"complement after complete = complete of flipped acceptance"
    auto_arb (fun d ->
      let man, a, b = setup () in
      let t = Ref_ops.determinize (build_auto man a b d) in
      let lhs = Ref_ops.complement (Ops.complete t) in
      (* flipping acceptance first and completing with an *accepting* sink
         is the same language *)
      let flipped = { t with A.accepting = Array.map not t.A.accepting } in
      let rhs =
        let c = Ops.complete flipped in
        if A.num_states c = A.num_states flipped then c
        else begin
          (* make the added sink accepting *)
          let acc = Array.copy c.A.accepting in
          acc.(A.num_states c - 1) <- true;
          { c with A.accepting = acc }
        end
      in
      L.equivalent lhs rhs)

let prop_minimize_preserves =
  QCheck.Test.make ~count:100 ~name:"minimize preserves the language"
    auto_arb (fun d ->
      let man, a, b = setup () in
      let t = Ops.complete (Ref_ops.determinize (build_auto man a b d)) in
      let mt = Fsa.Minimize.minimize t in
      L.equivalent t mt && A.num_states mt <= A.num_states t)

let prop_product_subset =
  QCheck.Test.make ~count:100 ~name:"product language ⊆ both factors"
    (QCheck.pair auto_arb auto_arb) (fun (d1, d2) ->
      let man, a, b = setup () in
      let t1 = build_auto man a b d1 and t2 = build_auto man a b d2 in
      let p = Ref_ops.product t1 t2 in
      Ref_lang.subset p t1 && Ref_lang.subset p t2)

let prop_determinize_idempotent =
  QCheck.Test.make ~count:100 ~name:"determinize is idempotent (language)"
    auto_arb (fun d ->
      let man, a, b = setup () in
      let t = build_auto man a b d in
      let d1 = Ref_ops.determinize t in
      let d2 = Ref_ops.determinize d1 in
      A.is_deterministic d2 && L.equivalent d1 d2)

let prop_counterexample_is_witness =
  QCheck.Test.make ~count:100 ~name:"counterexample words are true witnesses"
    (QCheck.pair auto_arb auto_arb) (fun (da, db) ->
      let man, a, b = setup () in
      let ta = build_auto man a b da and tb = build_auto man a b db in
      match Ref_lang.counterexample ta tb with
      | None -> Ref_lang.subset ta tb
      | Some w -> Ref_lang.accepts ta w && not (Ref_lang.accepts tb w))

let prop_hide_expand_roundtrip =
  QCheck.Test.make ~count:100
    ~name:"hide after expand by a fresh variable is identity" auto_arb
    (fun d ->
      let man, a, b = setup () in
      let t = build_auto man a b d in
      let c = M.new_var ~name:"c" man in
      (* expand by c, then hide it again *)
      let round =
        Ref_ops.change_support (Ref_ops.change_support t [ a; b; c ]) [ a; b ]
      in
      Ref_lang.equivalent t round)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_theorem1; prop_determinize_preserves; prop_complete_preserves;
      prop_complement_involutive; prop_complement_commutes_with_complete;
      prop_minimize_preserves; prop_product_subset;
      prop_determinize_idempotent; prop_counterexample_is_witness;
      prop_hide_expand_roundtrip ]

let () =
  Alcotest.run "automaton"
    [ ( "structure",
        [ Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "flags" `Quick test_determinism_flags;
          Alcotest.test_case "accepts" `Quick test_accepts ] );
      ( "operators",
        [ Alcotest.test_case "complete language" `Quick
            test_complete_preserves_language;
          Alcotest.test_case "complete idempotent" `Quick
            test_complete_idempotent_on_complete;
          Alcotest.test_case "complement words" `Quick test_complement_words;
          Alcotest.test_case "complement needs det" `Quick
            test_complement_requires_det;
          Alcotest.test_case "determinize" `Quick test_determinize;
          Alcotest.test_case "product" `Quick test_product_intersects;
          Alcotest.test_case "hide" `Quick test_hide_projects;
          Alcotest.test_case "expand" `Quick test_expand_cylinder;
          Alcotest.test_case "prefix close" `Quick test_prefix_close;
          Alcotest.test_case "prefix close empty" `Quick
            test_prefix_close_empty;
          Alcotest.test_case "progressive" `Quick test_progressive;
          Alcotest.test_case "progressive empty" `Quick
            test_progressive_empty;
          Alcotest.test_case "trim" `Quick test_trim;
          Alcotest.test_case "restrict numbering" `Quick
            test_restrict_numbering;
          Alcotest.test_case "restrict drops the initial state" `Quick
            test_restrict_initial_dropped;
          Alcotest.test_case "trim numbering" `Quick test_trim_numbering;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "normalize edges" `Quick test_normalize_edges;
          Alcotest.test_case "successors + names" `Quick
            test_successors_and_names;
          Alcotest.test_case "empty automaton" `Quick test_empty_automaton;
          Alcotest.test_case "support noop" `Quick test_change_support_noop;
          Alcotest.test_case "pp + dot" `Quick test_pp_and_dot ] );
      ( "language",
        [ Alcotest.test_case "subset + counterexample" `Quick
            test_subset_and_counterexample;
          Alcotest.test_case "equivalent" `Quick test_equivalent_reflexive;
          Alcotest.test_case "rejects nondeterministic" `Quick
            test_language_rejects_nondet;
          Alcotest.test_case "rejects distinct alphabets" `Quick
            test_language_rejects_alphabets ] );
      ( "from_network",
        [ Alcotest.test_case "counter automaton" `Quick test_from_network ] );
      ("properties", qcheck_cases) ]
