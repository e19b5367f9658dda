(* Property suite for the fused and-exists (relational product) kernel:
   on random BDD pairs and quantification cubes the fused operation must
   equal the two-step [exists (and)] computation, under cache stress —
   interleaved managers, repeated queries against a warm operator cache,
   and queries re-run after a FORCE reorder into a fresh manager. *)

module M = Bdd.Manager
module O = Bdd.Ops

let nvars = 8

(* a (seed, quantified-vars) pair drives one property instance; BDDs are
   rebuilt deterministically from the seed inside a fresh manager *)
let instance_arb =
  QCheck.(
    make
      ~print:(fun (seed, vars) ->
        Printf.sprintf "seed=%d quantify=[%s]" seed
          (String.concat ";" (List.map string_of_int vars)))
      Gen.(
        pair (int_bound 1_000_000)
          (list_size (int_range 0 nvars) (int_bound (nvars - 1)))))

let build seed =
  let man = Helpers.fresh_man ~nvars () in
  let rng = Random.State.make [| seed |] in
  let f = Helpers.random_bdd ~depth:4 man nvars rng in
  let g = Helpers.random_bdd ~depth:4 man nvars rng in
  (man, f, g)

let quantify_cube man vars = O.cube_of_vars man (List.sort_uniq compare vars)

let prop_fused_equals_two_step =
  QCheck.Test.make ~count:300 ~name:"and_exists = exists of and" instance_arb
    (fun (seed, vars) ->
      let man, f, g = build seed in
      let cube = quantify_cube man vars in
      O.and_exists man cube f g = O.exists man cube (O.band man f g))

let prop_operand_order_irrelevant =
  QCheck.Test.make ~count:200 ~name:"and_exists commutes" instance_arb
    (fun (seed, vars) ->
      let man, f, g = build seed in
      let cube = quantify_cube man vars in
      O.and_exists man cube f g = O.and_exists man cube g f)

let prop_self_conjunction =
  QCheck.Test.make ~count:200 ~name:"and_exists m c f f = exists m c f"
    instance_arb (fun (seed, vars) ->
      let man, f, _ = build seed in
      let cube = quantify_cube man vars in
      O.and_exists man cube f f = O.exists man cube f)

(* --- cache stress ---------------------------------------------------------- *)

(* interleaving queries across two managers must not cross-pollute their
   operator caches: each manager keeps returning its own reference result *)
let test_interleaved_managers () =
  let rng = Random.State.make [| 77 |] in
  let mk () =
    let man = Helpers.fresh_man ~nvars () in
    let f = Helpers.random_bdd ~depth:4 man nvars rng in
    let g = Helpers.random_bdd ~depth:4 man nvars rng in
    let cube = O.cube_of_vars man [ 1; 3; 5; 7 ] in
    let reference = O.exists man cube (O.band man f g) in
    (man, f, g, cube, reference)
  in
  let a = mk () and b = mk () in
  for _ = 1 to 100 do
    List.iter
      (fun (man, f, g, cube, reference) ->
        Alcotest.(check int) "interleaved query" reference
          (O.and_exists man cube f g))
      [ a; b ]
  done

(* a repeated query must be answered from the and_exists operator cache:
   same canonical result every time, and the per-op hit counter advances *)
let test_repeated_queries_hit_cache () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let rng = Random.State.make [| 78 |] in
  let man = Helpers.fresh_man ~nvars () in
  let f = Helpers.random_bdd ~depth:4 man nvars rng in
  let g = Helpers.random_bdd ~depth:4 man nvars rng in
  let cube = O.cube_of_vars man [ 0; 2; 4; 6 ] in
  let first = O.and_exists man cube f g in
  let lookups0 = Obs.Counter.find "bdd.cache.lookups.and_exists" in
  let hits0 = Obs.Counter.find "bdd.cache.hits.and_exists" in
  for _ = 1 to 50 do
    Alcotest.(check int) "stable result" first (O.and_exists man cube f g)
  done;
  let lookups = Obs.Counter.find "bdd.cache.lookups.and_exists" - lookups0 in
  let hits = Obs.Counter.find "bdd.cache.hits.and_exists" - hits0 in
  Alcotest.(check bool) "cache consulted" true (lookups > 0);
  Alcotest.(check bool) "cache hits recorded" true (hits > 0);
  Alcotest.(check bool) "hits bounded by lookups" true (hits <= lookups);
  (* clearing the caches must not change the answer, only the hit pattern *)
  M.clear_caches man;
  Alcotest.(check int) "stable after clear_caches" first
    (O.and_exists man cube f g)

(* the fused kernel must survive a reorder: recompute in the FORCE-reordered
   manager and compare against the migrated original result *)
let test_post_reorder_queries () =
  let rng = Random.State.make [| 79 |] in
  for _ = 1 to 20 do
    let man = Helpers.fresh_man ~nvars () in
    let f = Helpers.random_bdd ~depth:4 man nvars rng in
    let g = Helpers.random_bdd ~depth:4 man nvars rng in
    let vars = [ 1; 2; 5 ] in
    let r = O.and_exists man (O.cube_of_vars man vars) f g in
    let roots = [ f; g; r ] in
    let dst, roots, var_map =
      Bdd.Reorder.reorder man ~hyperedges:(List.map (O.support man) roots)
        roots
    in
    let f', g', r_migrated =
      match roots with
      | [ a; b; c ] -> (a, b, c)
      | _ -> Alcotest.fail "reorder root count"
    in
    let cube' = O.cube_of_vars dst (List.map var_map vars) in
    Alcotest.(check int) "post-reorder query = migrated result" r_migrated
      (O.and_exists dst cube' f' g')
  done

let () =
  Alcotest.run "and_exists"
    [ ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fused_equals_two_step; prop_operand_order_irrelevant;
            prop_self_conjunction ] );
      ( "cache stress",
        [ Alcotest.test_case "interleaved managers" `Quick
            test_interleaved_managers;
          Alcotest.test_case "repeated queries" `Quick
            test_repeated_queries_hit_cache;
          Alcotest.test_case "post-reorder queries" `Quick
            test_post_reorder_queries ] ) ]
