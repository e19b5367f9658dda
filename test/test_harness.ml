(* Tests for the subset-splitting kernel shared by both determinization
   flows, and for the Table-1 experiment harness. *)

module M = Bdd.Manager
module O = Bdd.Ops
module E = Equation
module H = Harness.Experiments

(* --- Subset.memo_splitter ----------------------------------------------------- *)

let random_bdd = Helpers.random_bdd ~depth:3

(* one split of [p] by a fresh splitter, so nothing is served from a memo *)
let split_once man ~p ~domain ~alphabet ~ns_cube =
  M.with_roots man @@ fun roots ->
  E.Subset.memo_splitter man ~roots ~alphabet ~ns_cube ~domain p

let test_split_successors_properties () =
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 100 do
    let man = M.create () in
    (* alphabet vars 0..2, ns vars 3..5 *)
    ignore (M.new_vars man 6 : int list);
    let alphabet = [ 0; 1; 2 ] and ns = [ 3; 4; 5 ] in
    let p = random_bdd man 6 rng in
    let ns_cube = O.cube_of_vars man ns in
    let domain = O.exists man ns_cube p in
    let splits = split_once man ~p ~domain ~alphabet ~ns_cube in
    (* guards are non-zero, pairwise disjoint, and cover the domain *)
    List.iter
      (fun (g, succ) ->
        Alcotest.(check bool) "guard non-zero" true (g <> M.zero);
        Alcotest.(check bool) "successor non-zero" true (succ <> M.zero))
      splits;
    let rec disjoint = function
      | [] -> true
      | (g, _) :: rest ->
        List.for_all (fun (h, _) -> O.band man g h = M.zero) rest
        && disjoint rest
    in
    Alcotest.(check bool) "guards disjoint" true (disjoint splits);
    Alcotest.(check int) "guards cover the domain" domain
      (O.disj man (List.map fst splits));
    (* each successor is the cofactor of p at any symbol of its guard, and
       rebuilding p from the pieces gives p back *)
    let rebuilt =
      O.disj man (List.map (fun (g, succ) -> O.band man g succ) splits)
    in
    Alcotest.(check int) "splits rebuild p" p rebuilt;
    List.iter
      (fun (g, succ) ->
        match O.pick_minterm man g alphabet with
        | None -> Alcotest.fail "empty guard"
        | Some lits ->
          let sym = O.cube_of_literals man lits in
          Alcotest.(check int) "successor = cofactor" succ
            (O.cofactor_cube man p sym))
      splits
  done

let test_split_successors_empty () =
  let man = M.create () in
  ignore (M.new_vars man 4 : int list);
  let ns_cube = O.cube_of_vars man [ 2; 3 ] in
  Alcotest.(check (list (pair int int))) "empty relation" []
    (split_once man ~p:M.zero ~domain:M.zero ~alphabet:[ 0; 1 ] ~ns_cube)

let test_split_successors_single () =
  let man = M.create () in
  ignore (M.new_vars man 2 : int list);
  (* P = ns0 (successor {ns0=1} for every symbol over alphabet {0}) *)
  let p = O.var_bdd man 1 in
  let ns_cube = O.cube_of_vars man [ 1 ] in
  let domain = O.exists man ns_cube p in
  match split_once man ~p ~domain ~alphabet:[ 0 ] ~ns_cube with
  | [ (g, succ) ] ->
    Alcotest.(check int) "guard is all symbols" M.one g;
    Alcotest.(check int) "successor is ns0" p succ
  | other ->
    Alcotest.fail (Printf.sprintf "expected one split, got %d" (List.length other))

(* Regression: an alphabet variable occurring in the next-state cube makes
   every guard empty (the relation is never constant on a symbol class);
   this used to die in an [assert false] and now raises a descriptive
   [Invalid_argument] naming the offending symbol. *)
let test_split_successors_overlap_rejected () =
  let man = M.create () in
  ignore (M.new_var ~name:"a" man : int);
  let p = O.var_bdd man 0 in
  let ns_cube = O.cube_of_vars man [ 0 ] in
  let domain = O.exists man ns_cube p in
  Helpers.check_invalid_arg "alphabet/ns overlap" "a=0" (fun () ->
      split_once man ~p ~domain ~alphabet:[ 0 ] ~ns_cube)

(* The memoized splitter enumerates a relation once: a repeated [p] gets
   the very arcs of the first call back from the table, equal to what a
   fresh splitter's enumeration gives. *)
let test_split_memo () =
  let man = M.create () in
  ignore (M.new_vars man 4 : int list);
  let p = O.var_bdd man 2 in
  let ns_cube = O.cube_of_vars man [ 2; 3 ] in
  let domain = O.exists man ns_cube p in
  M.with_roots man @@ fun roots ->
  let split =
    E.Subset.memo_splitter man ~roots ~alphabet:[ 0; 1 ] ~ns_cube ~domain
  in
  let first = split p in
  Alcotest.(check (list (pair int int))) "memoized = unmemoized"
    (split_once man ~p ~domain ~alphabet:[ 0; 1 ] ~ns_cube)
    first;
  Alcotest.(check bool) "same relation is served from the memo" true
    (split p == first)

(* --- Harness ------------------------------------------------------------------ *)

let test_run_row_completes () =
  let row = Circuits.Suite.find "t510" in
  let r = H.run_row ~time_limit:60.0 row in
  (match r.H.part with
   | E.Solve.Completed rep ->
     Alcotest.(check bool) "csf states positive" true (rep.E.Solve.csf_states > 0)
   | E.Solve.Could_not_complete _ -> Alcotest.fail "t510 partitioned CNC");
  (match r.H.mono with
   | E.Solve.Completed rep ->
     (match r.H.part with
      | E.Solve.Completed prep ->
        Alcotest.(check int) "methods agree on CSF size"
          prep.E.Solve.csf_states rep.E.Solve.csf_states
      | E.Solve.Could_not_complete _ -> ())
   | E.Solve.Could_not_complete _ -> Alcotest.fail "t510 monolithic CNC");
  match H.verify_row r with
  | Some (contained, equal) ->
    Alcotest.(check bool) "verified containment" true contained;
    Alcotest.(check bool) "verified composition" true equal
  | None -> Alcotest.fail "expected verification"

let test_run_row_cnc () =
  let row = Circuits.Suite.find "t298" in
  let r = H.run_row ~node_limit:100 row in
  (match r.H.part with
   | E.Solve.Could_not_complete { reason; _ } ->
     Alcotest.(check string) "node-limit reason" "node limit exceeded" reason
   | E.Solve.Completed _ -> Alcotest.fail "expected CNC under 100 nodes");
  Alcotest.(check bool) "no verification for CNC" true
    (H.verify_row r = None)

(* One process runs the whole table, so a row's counts must not depend on
   the rows solved before it: every integer field of t298's baseline entry
   (peak nodes, image calls, cache lookups and hits, subset states, GC
   runs, ...) reads the same alone and after t510. *)
let test_run_row_order_independent () =
  let rec ints path = function
    | Obs.Json.Int n -> [ (path, n) ]
    | Obs.Json.Obj fields ->
      List.concat_map (fun (k, v) -> ints (path ^ "." ^ k) v) fields
    | _ -> []
  in
  let counts name =
    ints "" (H.circuit_json (H.run_row (Circuits.Suite.find name)))
  in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let alone = counts "t298" in
      ignore (counts "t510" : (string * int) list);
      let after = counts "t298" in
      Alcotest.(check bool) "image calls counted" true
        (List.assoc ".image_calls" alone > 0);
      Alcotest.(check (list (pair string int)))
        "t298 counts alone and after t510" alone after)

(* A flow's entry carries the fields [bench_json] documents, in that
   order: the partitioned flow's at the top level after the name, and the
   same list in the ["monolithic"] object. compare_table1.py matches
   fields by name, so only this test holds the order. *)
let test_circuit_json_fields () =
  let flow =
    [ "time_s"; "peak_nodes"; "image_calls"; "cache_hit_rate";
      "and_exists_lookups"; "and_exists_hits"; "and_exists_hit_rate";
      "split_memo_hits"; "subset_states"; "csf_time_s";
      "csf_worklist_deletions"; "gc_runs"; "gc_nodes_swept"; "gc_dead_ratio";
      "completed" ]
  in
  match H.circuit_json (H.run_row (Circuits.Suite.find "t510")) with
  | Obs.Json.Obj fields ->
    Alcotest.(check (list string)) "entry fields"
      (("name" :: flow) @ [ "monolithic" ])
      (List.map fst fields);
    (match List.assoc "monolithic" fields with
     | Obs.Json.Obj mono ->
       Alcotest.(check (list string)) "monolithic fields" flow
         (List.map fst mono)
     | _ -> Alcotest.fail "monolithic is not an object")
  | _ -> Alcotest.fail "entry is not an object"

let test_print_table1_format () =
  let row = Circuits.Suite.find "t510" in
  let r = H.run_row ~time_limit:60.0 row in
  let cnc =
    { r with
      H.mono =
        E.Solve.Could_not_complete
          { cpu_seconds = 1.0;
            reason = "test";
            attempts =
              [ { E.Solve.label = "monolithic";
                  kernel = "monolithic-relation";
                  phase = E.Runtime.Build;
                  subset_states = 0;
                  peak_nodes = 0;
                  cpu_seconds = 1.0;
                  failure = "test" } ];
            skipped = [] } }
  in
  let out = Format.asprintf "%a" H.print_table1 [ r; cnc ] in
  let contains = Helpers.contains in
  List.iter
    (fun col ->
      Alcotest.(check bool) (col ^ " column present") true (contains col out))
    [ "Name"; "i/o/cs"; "Fcs/Xcs"; "States(X)"; "Part,s"; "Mono,s"; "Ratio" ];
  Alcotest.(check bool) "CNC rendered" true (contains "CNC" out);
  Alcotest.(check bool) "row name rendered" true (contains "t510" out)

let () =
  Alcotest.run "harness"
    [ ( "subset splitting",
        [ Alcotest.test_case "properties" `Quick
            test_split_successors_properties;
          Alcotest.test_case "empty" `Quick test_split_successors_empty;
          Alcotest.test_case "single" `Quick test_split_successors_single;
          Alcotest.test_case "alphabet/ns overlap rejected" `Quick
            test_split_successors_overlap_rejected;
          Alcotest.test_case "memo serves a repeated relation" `Quick
            test_split_memo ] );
      ( "experiments",
        [ Alcotest.test_case "run row" `Quick test_run_row_completes;
          Alcotest.test_case "cnc row" `Quick test_run_row_cnc;
          Alcotest.test_case "row counts independent of earlier rows" `Quick
            test_run_row_order_independent;
          Alcotest.test_case "table format" `Quick test_print_table1_format;
          Alcotest.test_case "entry fields in order" `Quick
            test_circuit_json_fields ] ) ]
