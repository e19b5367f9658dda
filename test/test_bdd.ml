(* Tests for the BDD engine: every operation is checked against brute-force
   truth-table semantics on small variable counts, both on hand-picked cases
   and on QCheck-generated random formulas. *)

module M = Bdd.Manager
module O = Bdd.Ops

(* --- a tiny formula language with a reference evaluator ------------------ *)

type formula =
  | F_var of int
  | F_const of bool
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_xor of formula * formula
  | F_ite of formula * formula * formula

let rec feval env = function
  | F_var v -> env v
  | F_const b -> b
  | F_not f -> not (feval env f)
  | F_and (f, g) -> feval env f && feval env g
  | F_or (f, g) -> feval env f || feval env g
  | F_xor (f, g) -> feval env f <> feval env g
  | F_ite (f, g, h) -> if feval env f then feval env g else feval env h

let rec fbuild m = function
  | F_var v -> O.var_bdd m v
  | F_const b -> if b then M.one else M.zero
  | F_not f -> O.bnot m (fbuild m f)
  | F_and (f, g) -> O.band m (fbuild m f) (fbuild m g)
  | F_or (f, g) -> O.bor m (fbuild m f) (fbuild m g)
  | F_xor (f, g) -> O.bxor m (fbuild m f) (fbuild m g)
  | F_ite (f, g, h) -> O.ite m (fbuild m f) (fbuild m g) (fbuild m h)

let formula_sized nvars =
  let open QCheck.Gen in
  fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> F_var v) (int_bound (nvars - 1));
            map (fun b -> F_const b) bool ]
      else
        frequency
          [ (1, map (fun v -> F_var v) (int_bound (nvars - 1)));
            (2, map (fun f -> F_not f) (self (n - 1)));
            (3, map2 (fun f g -> F_and (f, g)) (self (n / 2)) (self (n / 2)));
            (3, map2 (fun f g -> F_or (f, g)) (self (n / 2)) (self (n / 2)));
            (2, map2 (fun f g -> F_xor (f, g)) (self (n / 2)) (self (n / 2)));
            (1,
             map3
               (fun f g h -> F_ite (f, g, h))
               (self (n / 3)) (self (n / 3)) (self (n / 3))) ])

let formula_gen nvars = QCheck.Gen.sized (formula_sized nvars)

let rec formula_print = function
  | F_var v -> Printf.sprintf "x%d" v
  | F_const b -> string_of_bool b
  | F_not f -> Printf.sprintf "!(%s)" (formula_print f)
  | F_and (f, g) -> Printf.sprintf "(%s & %s)" (formula_print f) (formula_print g)
  | F_or (f, g) -> Printf.sprintf "(%s | %s)" (formula_print f) (formula_print g)
  | F_xor (f, g) -> Printf.sprintf "(%s ^ %s)" (formula_print f) (formula_print g)
  | F_ite (f, g, h) ->
    Printf.sprintf "ite(%s,%s,%s)" (formula_print f) (formula_print g)
      (formula_print h)

let formula_arb nvars =
  QCheck.make ~print:formula_print (formula_gen nvars)

let nvars = Helpers.default_nvars
let fresh_man () = Helpers.fresh_man ~nvars ()
let all_envs () = Helpers.all_envs ~nvars ()

let semantics_agree m f bdd =
  List.for_all
    (fun env -> feval env f = O.eval m bdd env)
    (all_envs ())

(* --- unit tests ----------------------------------------------------------- *)

let test_constants () =
  let m = fresh_man () in
  Alcotest.(check bool) "zero is const" true (M.is_const M.zero);
  Alcotest.(check bool) "one is const" true (M.is_const M.one);
  Alcotest.(check int) "not zero" M.one (O.bnot m M.zero);
  Alcotest.(check int) "not one" M.zero (O.bnot m M.one)

let test_var_semantics () =
  let m = fresh_man () in
  let x = O.var_bdd m 0 in
  Alcotest.(check bool) "x true" true (O.eval m x (fun _ -> true));
  Alcotest.(check bool) "x false" false (O.eval m x (fun _ -> false));
  let nx = O.nvar_bdd m 0 in
  Alcotest.(check int) "nvar = not var" (O.bnot m x) nx

let test_canonicity () =
  let m = fresh_man () in
  let x = O.var_bdd m 0 and y = O.var_bdd m 1 in
  let a = O.band m x y and b = O.band m y x in
  Alcotest.(check int) "and commutes to same node" a b;
  let c = O.bor m (O.band m x y) (O.band m x (O.bnot m y)) in
  Alcotest.(check int) "absorption gives x" x c

let test_de_morgan () =
  let m = fresh_man () in
  let x = O.var_bdd m 0 and y = O.var_bdd m 1 in
  Alcotest.(check int) "de morgan"
    (O.bnot m (O.band m x y))
    (O.bor m (O.bnot m x) (O.bnot m y))

let test_ite_truth_table () =
  let m = fresh_man () in
  let f = F_ite (F_var 0, F_xor (F_var 1, F_var 2), F_and (F_var 3, F_var 4)) in
  Alcotest.(check bool) "ite matches" true (semantics_agree m f (fbuild m f))

let test_exists_semantics () =
  let m = fresh_man () in
  let f = F_and (F_var 0, F_xor (F_var 1, F_var 2)) in
  let bdd = fbuild m f in
  let q = O.exists m (O.cube_of_vars m [ 1 ]) bdd in
  (* ∃x1. x0 & (x1 ^ x2) = x0 *)
  Alcotest.(check int) "exists collapses" (O.var_bdd m 0) q

let test_forall_semantics () =
  let m = fresh_man () in
  let f = F_or (F_var 0, F_var 1) in
  let bdd = fbuild m f in
  let q = O.forall m (O.cube_of_vars m [ 1 ]) bdd in
  (* ∀x1. x0 | x1 = x0 *)
  Alcotest.(check int) "forall collapses" (O.var_bdd m 0) q

let test_rename_swap () =
  let m = fresh_man () in
  let f = fbuild m (F_and (F_var 0, F_not (F_var 1))) in
  let r = O.rename m f [ (0, 1); (1, 0) ] in
  let expect = fbuild m (F_and (F_var 1, F_not (F_var 0))) in
  Alcotest.(check int) "swap rename" expect r

let test_rename_shift () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_var 2)) in
  let r = O.rename m f [ (0, 1); (2, 3) ] in
  let expect = fbuild m (F_xor (F_var 1, F_var 3)) in
  Alcotest.(check int) "shift rename (order-preserving)" expect r

let test_support () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 4, F_var 0, F_var 2)) in
  Alcotest.(check (list int)) "support" [ 0; 2; 4 ] (O.support m f)

let test_sat_count () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_var 1)) in
  Alcotest.(check (float 1e-9)) "xor count" 16.0 (O.sat_count m f nvars)

let test_cofactor () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 0, F_var 1, F_var 2)) in
  Alcotest.(check int) "positive cofactor" (O.var_bdd m 1)
    (O.cofactor_cube m f (O.var_bdd m 0));
  Alcotest.(check int) "negative cofactor" (O.var_bdd m 2)
    (O.cofactor_cube m f (O.nvar_bdd m 0))

let test_cofactor_cube () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 0, F_var 1, F_var 2)) in
  let cube = O.cube_of_literals m [ (0, true); (1, false) ] in
  Alcotest.(check int) "cube cofactor" M.zero (O.cofactor_cube m f cube)

let test_cube_enumeration () =
  let m = fresh_man () in
  let f = fbuild m (F_xor (F_var 0, F_var 1)) in
  let cs = Bdd.Cube.cubes m f in
  Alcotest.(check int) "two cubes" 2 (List.length cs);
  (* Re-disjoining the cubes must rebuild f. *)
  let back = O.disj m (List.map (O.cube_of_literals m) cs) in
  Alcotest.(check int) "cubes rebuild f" f back

let test_node_limit () =
  let m = M.create () in
  let vars = M.new_vars m 20 in
  M.set_node_limit m (Some 50);
  let blow () =
    (* a parity function over 20 vars needs ~40 nodes; conjoin with a dense
       majority-ish function to cross the limit *)
    let parity =
      List.fold_left (fun acc v -> O.bxor m acc (O.var_bdd m v)) M.zero vars
    in
    let clique =
      List.fold_left
        (fun acc v -> O.bor m acc (O.band m (O.var_bdd m v) parity))
        M.zero vars
    in
    ignore (clique : int)
  in
  Alcotest.check_raises "limit fires" M.Node_limit_exceeded blow

(* [limit_failure] records why the node limit raised: the live set still
   at the limit after a collection, or a collection the manager was not
   allowed to make. A raise from the allocation hook, and a new limit,
   leave no reason. *)
let test_limit_failure () =
  let m = M.create () in
  ignore (M.new_vars m 20 : int list);
  let f =
    List.fold_left (fun acc v -> O.bxor m acc (O.var_bdd m v)) M.zero
      (List.init 10 Fun.id)
  in
  let reason = Alcotest.testable (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
         | None -> "none"
         | Some M.Live_set -> "live set"
         | Some M.Deferred -> "deferred")) ( = )
  in
  let raises what f =
    Alcotest.check_raises what M.Node_limit_exceeded (fun () ->
        ignore (f () : int))
  in
  M.with_roots m (fun rs ->
      ignore (M.Roots.add rs f : int);
      ignore (M.collect m : int);
      M.set_auto_gc m true;
      M.set_gc_threshold m 0.0;
      (* the pinned parity function fills the budget; var 15 is a fresh node *)
      M.set_node_limit m (Some (M.live_nodes m));
      Alcotest.check reason "nothing raised yet" None (M.limit_failure m);
      raises "live set" (fun () -> O.var_bdd m 15);
      Alcotest.check reason "collected, still full" (Some M.Live_set)
        (M.limit_failure m);
      M.set_node_limit m (Some (M.live_nodes m));
      Alcotest.check reason "set_node_limit clears" None (M.limit_failure m);
      raises "frozen" (fun () -> M.with_frozen m (fun () -> O.var_bdd m 15));
      Alcotest.check reason "frozen window" (Some M.Deferred)
        (M.limit_failure m);
      M.set_auto_gc m false;
      raises "auto-GC off" (fun () -> O.var_bdd m 15);
      Alcotest.check reason "auto-GC off" (Some M.Deferred) (M.limit_failure m);
      M.set_auto_gc m true;
      M.set_gc_threshold m 0.5;
      raises "dead ratio" (fun () -> O.var_bdd m 15);
      Alcotest.check reason "dead ratio under threshold" (Some M.Deferred)
        (M.limit_failure m);
      M.set_gc_threshold m 0.0;
      raises "live set again" (fun () -> O.var_bdd m 15));
  (* unpinned by the end of the scope, the parity function is swept by the
     next collection, so the allocation gets past the limit and the hook
     raises *)
  M.set_alloc_hook m (Some (fun () -> raise M.Node_limit_exceeded));
  raises "hook" (fun () -> O.var_bdd m 15);
  Alcotest.check reason "hook raise" None (M.limit_failure m)

let test_print () =
  let m, a, b = Helpers.alphabet_man () in
  let f = O.band m (O.var_bdd m a) (O.bnot m (O.var_bdd m b)) in
  Alcotest.(check string) "cube print" "a & !b" (Bdd.Print.to_string m f);
  Alcotest.(check string) "true" "true" (Bdd.Print.to_string m M.one);
  Alcotest.(check string) "false" "false" (Bdd.Print.to_string m M.zero)

let test_shared_size () =
  let m = fresh_man () in
  let f = fbuild m (F_and (F_var 0, F_var 1)) in
  let g = fbuild m (F_and (F_var 1, F_var 2)) in
  (* shared size <= sum of sizes *)
  Alcotest.(check bool) "sharing bound" true
    (M.dag_size m [ f; g ] <= O.size m f + O.size m g);
  Alcotest.(check int) "size of literal" 1 (O.size m (O.var_bdd m 3))

let test_var_names () =
  let m = M.create () in
  let v = M.new_var ~name:"clk" m in
  Alcotest.(check string) "named" "clk" (M.var_name m v);
  Alcotest.(check (list string)) "prefixed" [ "cs0"; "cs1" ]
    (List.map (M.var_name m) (M.new_vars ~prefix:"cs" m 2));
  Alcotest.(check string) "out of range" "?42" (M.var_name m 42)

let test_cache_lossy_is_sound () =
  (* hammer one operation so cache slots collide; results must stay exact *)
  let m = M.create () in
  ignore (M.new_vars m 10 : int list);
  let fs = List.init 10 (fun v -> O.var_bdd m v) in
  let all = O.conj m fs in
  for _ = 1 to 3 do
    List.iter
      (fun f -> ignore (O.band m all (O.bnot m f) : int))
      fs
  done;
  Alcotest.(check int) "conj of all vars and a negation is zero" M.zero
    (O.band m all (O.bnot m (List.hd fs)));
  M.clear_caches m;
  Alcotest.(check int) "recompute after clear" M.zero
    (O.band m all (O.bnot m (List.hd fs)))

(* --- computed-cache probe ---------------------------------------------- *)

let ops =
  M.Op.[ ite; bnot; exists; and_exists; cofactor_cube ]

let test_cache_probe_results () =
  let m = fresh_man () in
  Alcotest.(check int) "a miss is -1" (-1) (M.cache_find m M.Op.ite 5 6 7);
  (* the constants are ordinary results, not miss markers *)
  List.iter
    (fun r ->
      M.cache_store m M.Op.ite 5 6 7 r;
      Alcotest.(check int) (Printf.sprintf "stored %d is a hit" r) r
        (M.cache_find m M.Op.ite 5 6 7))
    [ M.zero; M.one; 42 ]

let test_cache_ops_never_alias () =
  let m = fresh_man () in
  List.iteri
    (fun k op ->
      (* an empty cache holding one entry: every other tag must miss *)
      M.clear_caches m;
      M.cache_store m op 3 4 5 (100 + k);
      Alcotest.(check int) "own tag hits" (100 + k) (M.cache_find m op 3 4 5);
      List.iter
        (fun op' ->
          if op' <> op then
            Alcotest.(check int)
              (Printf.sprintf "tag %d does not see tag %d's entry" op' op)
              (-1)
              (M.cache_find m op' 3 4 5))
        ops)
    ops

(* An entry packs [a] and [b] into one word with the tag and epoch, and
   [c] with the result into another, 26 bits per id. Round-trip every tag
   at the fields' edges. At the initial cache size the slot depends only
   on the low 25 bits of each operand, so an operand that differs in its
   top id bit alone probes the same entry and must miss on the packed
   compare. *)
let test_cache_packed_edges () =
  let m = M.create () in
  let top = M.max_nodes - 1 and top_bit = M.max_nodes / 2 in
  let triples =
    [ (top, top, top); (M.zero, M.zero, M.zero); (top, M.zero, top);
      (M.one, top, M.one); (top_bit, top_bit, top_bit) ]
  in
  List.iter
    (fun op ->
      List.iter
        (fun (a, b, c) ->
          List.iter
            (fun r ->
              M.clear_caches m;
              M.cache_store m op a b c r;
              let find a b c = M.cache_find m op a b c in
              if find a b c <> r then
                Alcotest.failf "tag %d (%d, %d, %d) -> %d: got %d" op a b c r
                  (find a b c);
              List.iter
                (fun (what, a', b', c') ->
                  if find a' b' c' <> -1 then
                    Alcotest.failf "tag %d (%d, %d, %d): %s hits" op a b c what)
                [ ("a flipped in its top bit", a lxor top_bit, b, c);
                  ("b flipped in its top bit", a, b lxor top_bit, c);
                  ("c flipped in its top bit", a, b, c lxor top_bit) ];
              List.iter
                (fun op' ->
                  if op' <> op && M.cache_find m op' a b c <> -1 then
                    Alcotest.failf "tag %d sees tag %d's (%d, %d, %d)" op' op
                      a b c)
                ops)
            [ M.zero; M.one; top ])
        triples)
    ops

(* Levels are stored in 32 bits: a BDD over variables numbered past 16
   bits keeps its support and size, and after a collection each live
   node is found again under its own (var, low, high). *)
let test_wide_levels () =
  let m = M.create () in
  ignore (M.new_vars m 70_010 : int list);
  let x = O.var_bdd m in
  (* x70000 xor x70003 xor (x70004 and x70009): a node at 70000 and two
     at each level below it *)
  let f =
    O.bxor m
      (O.bxor m (x 70_000) (x 70_003))
      (O.band m (x 70_004) (x 70_009))
  in
  M.protect m f;
  let vs = [ 70_000; 70_003; 70_004; 70_009 ] in
  Alcotest.(check (list int)) "support" vs (O.support m f);
  let seen = Bytes.make (M.num_vars m) '\000' in
  M.support_mark m f seen;
  Alcotest.(check (list int)) "support_mark" vs
    (List.filter (fun v -> Bytes.get seen v <> '\000')
       (List.init (M.num_vars m) Fun.id));
  Alcotest.(check int) "dag_size" 7 (M.dag_size m [ f ]);
  Alcotest.(check int) "root level unmarked" 70_000 (M.var m f);
  ignore (M.collect m : int);
  let rec nodes id acc =
    if M.is_const id || List.mem id acc then acc
    else nodes (M.high m id) (nodes (M.low m id) (id :: acc))
  in
  let live = nodes f [] in
  Alcotest.(check int) "live decision nodes" 7 (List.length live);
  List.iter
    (fun id ->
      Alcotest.(check int)
        (Printf.sprintf "node %d found again" id)
        id
        (M.mk m (M.var m id) (M.low m id) (M.high m id)))
    live

let test_cache_emptied () =
  let m = fresh_man () in
  let stored () =
    M.cache_store m M.Op.ite 2 3 4 M.one;
    Alcotest.(check int) "stored" M.one (M.cache_find m M.Op.ite 2 3 4)
  in
  stored ();
  M.clear_caches m;
  Alcotest.(check int) "clear_caches empties" (-1) (M.cache_find m M.Op.ite 2 3 4);
  stored ();
  ignore (M.collect m : int);
  Alcotest.(check int) "collect empties" (-1) (M.cache_find m M.Op.ite 2 3 4);
  (* growth: raw [mk] never touches the cache, so only a growth can drop
     the entry; minterm cubes over 12 variables add fresh nodes *)
  let m = M.create () in
  let vars = M.new_vars m 12 in
  M.cache_store m M.Op.ite 2 3 4 M.one;
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let grows () = Obs.Counter.find "bdd.cache.grows" in
  let i = ref 0 in
  while grows () = 0 do
    Alcotest.(check int) "kept until the cache grows" M.one
      (M.cache_find m M.Op.ite 2 3 4);
    ignore
      (O.cube_of_literals m (List.map (fun v -> (v, (!i lsr v) land 1 = 1)) vars)
        : int);
    incr i
  done;
  Alcotest.(check int) "growth empties" (-1) (M.cache_find m M.Op.ite 2 3 4)

(* --- the chunked computed cache ------------------------------------------ *)

(* The computed cache is held in chunks of 2^16 words (2^15 two-word
   entries) once it outgrows one. These tests drive a manager's cache to
   two chunks and then four with distinct single-variable nodes (about 66k
   of them), and pick their keys with a copy of [Manager.cache_slot]'s
   hash so that the entries land in distinct slots across the chunks. *)

let chunk_entries = 1 lsl 15

let cache_slot ~entries op a b c =
  let h =
    (op * 0x27d4eb2f)
    lxor (a * 0x9e3779b1)
    lxor (b * 0x85ebca77)
    lxor (c * 0xc2b2ae3d)
  in
  (h lxor (h lsr 13)) land (entries - 1)

let key i = (2 + i, 3 + (2 * i), 5 + (3 * i))

(* [n] keys of tag ite with distinct slots in a cache of [entries] *)
let spread_keys ~entries n =
  let used = Hashtbl.create n in
  let rec go i acc =
    if List.length acc = n then List.rev acc
    else
      let a, b, c = key i in
      let s = cache_slot ~entries M.Op.ite a b c in
      if Hashtbl.mem used s then go (i + 1) acc
      else begin
        Hashtbl.add used s ();
        go (i + 1) (key i :: acc)
      end
  in
  go 0 []

let chunks_of ~entries keys =
  List.sort_uniq compare
    (List.map
       (fun (a, b, c) -> cache_slot ~entries M.Op.ite a b c / chunk_entries)
       keys)

let cache_bytes () = Obs.Gauge.find "bdd.mem.cache_bytes"

(* a manager with Obs on whose cache, [initial] entries when the manager
   was made, is grown to [entries] by fresh nodes, one per variable;
   checks the footprint gauge on the way *)
let grow_cache_to m ~initial next_var entries =
  let grows () = Obs.Counter.find "bdd.cache.grows" in
  let size () = initial lsl grows () in
  while size () < entries do
    let before = size () in
    ignore (M.mk m !next_var M.zero M.one : int);
    incr next_var;
    if size () > before then
      Alcotest.(check int) "bdd.mem.cache_bytes = 16 x entries"
        (16 * size ()) (cache_bytes ())
  done;
  Alcotest.(check int) "grown to the size asked" entries (size ())

let with_chunked_cache f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let m = M.create () in
  let initial = cache_bytes () / 16 in
  ignore (M.new_vars m 70_000 : int list);
  let next_var = ref 0 in
  grow_cache_to m ~initial next_var (2 * chunk_entries);
  f m (grow_cache_to m ~initial next_var)

(* the cache starts at one entry per store slot, rounded up to a power
   of two *)
let test_cache_initial_size () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  List.iter
    (fun (initial_capacity, entries) ->
      Obs.reset ();
      ignore (M.create ~initial_capacity () : M.t);
      Alcotest.(check int)
        (Printf.sprintf "bdd.mem.cache_bytes at capacity %d" initial_capacity)
        (16 * entries) (cache_bytes ()))
    [ (16, 16); (1000, 1024); (1024, 1024) ]

let store_all m keys =
  List.iter (fun (a, b, c) -> M.cache_store m M.Op.ite a b c (a + 1)) keys

let check_all m what expect keys =
  List.iter
    (fun (a, b, c) ->
      let r = M.cache_find m M.Op.ite a b c in
      if r <> expect (a + 1) then
        Alcotest.failf "%s: (%d, %d, %d) gives %d" what a b c r)
    keys

let test_cache_chunks_grow () =
  with_chunked_cache @@ fun m grow_to ->
  let entries = 2 * chunk_entries in
  (* the copy of the slot hash agrees with the kernel's: two keys in one
     slot evict each other *)
  let slot (a, b, c) = cache_slot ~entries M.Op.ite a b c in
  let rec same i =
    if slot (key i) = slot (key 0) then key i else same (i + 1)
  in
  let (a, b, c), (a', b', c') = (key 0, same 1) in
  M.cache_store m M.Op.ite a b c M.one;
  M.cache_store m M.Op.ite a' b' c' M.one;
  Alcotest.(check int) "a key in the same slot evicts" (-1)
    (M.cache_find m M.Op.ite a b c);
  let keys = spread_keys ~entries 256 in
  Alcotest.(check (list int)) "keys in both chunks" [ 0; 1 ]
    (chunks_of ~entries keys);
  store_all m keys;
  check_all m "two chunks, stored" Fun.id keys;
  grow_to (2 * entries);
  check_all m "emptied by growth to four chunks" (fun _ -> -1) keys;
  Alcotest.(check (list int)) "keys in all four chunks" [ 0; 1; 2; 3 ]
    (chunks_of ~entries:(2 * entries) keys);
  store_all m keys;
  check_all m "four chunks, stored" Fun.id keys

let test_cache_chunks_wrap () =
  with_chunked_cache @@ fun m _ ->
  let keys = spread_keys ~entries:(2 * chunk_entries) 256 in
  store_all m keys;
  check_all m "stored" Fun.id keys;
  (* the 128th collection brings the epoch back round to the one the
     keys were stored under, past the wrap that must empty every chunk *)
  for _ = 1 to 127 do
    ignore (M.collect m : int);
    check_all m "after a collection" (fun _ -> -1) keys
  done;
  ignore (M.collect m : int);
  Alcotest.(check int) "no entry hits after the wrap" 0
    (List.length
       (List.filter (fun (a, b, c) -> M.cache_find m M.Op.ite a b c <> -1) keys))

let test_pick_minterm () =
  let m = fresh_man () in
  let f = fbuild m (F_and (F_not (F_var 1), F_var 3)) in
  match O.pick_minterm m f [ 0; 1; 2; 3; 4 ] with
  | None -> Alcotest.fail "expected a minterm"
  | Some lits ->
    let env v = List.assoc v lits in
    Alcotest.(check bool) "minterm satisfies f" true (O.eval m f env);
    Alcotest.(check int) "total assignment" nvars (List.length lits)

(* [Idtbl] through growth, replacement, clearing and filtering *)
let test_idtbl () =
  let t = Bdd.Idtbl.create 4 (-1) in
  let keys = List.init 1000 (fun k -> 3 * k) in
  List.iter (fun k -> Bdd.Idtbl.replace t k (k / 3)) keys;
  let found () = List.filter (fun k -> Bdd.Idtbl.find t k >= 0) keys in
  Alcotest.(check bool) "every key found" true
    (List.for_all (fun k -> Bdd.Idtbl.find t k = k / 3) keys);
  Alcotest.(check int) "absent key" (-1) (Bdd.Idtbl.find t 1);
  Bdd.Idtbl.replace t 3 42;
  Alcotest.(check int) "replaced" 42 (Bdd.Idtbl.find t 3);
  Bdd.Idtbl.filter_inplace t (fun k _ -> k mod 2 = 0);
  Alcotest.(check int) "even keys kept" 500 (List.length (found ()));
  Alcotest.(check (pair int int)) "filtered" (-1, 2)
    (Bdd.Idtbl.find t 3, Bdd.Idtbl.find t 6);
  Bdd.Idtbl.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (found ()));
  Bdd.Idtbl.replace t 6 7;
  Alcotest.(check int) "usable after clear" 7 (Bdd.Idtbl.find t 6)

(* the scratch memo belongs to one operation: a nested use raises, and
   the raise leaves the manager unfrozen with the memo free *)
let test_scratch_memo_nesting () =
  let m = fresh_man () in
  Helpers.check_invalid_arg "nested scratch memo" "already in use" (fun () ->
      M.with_scratch_memo m (fun _ -> M.with_scratch_memo m (fun _ -> ())));
  ignore (M.collect m : int);
  Alcotest.(check int) "memo free again" 5
    (M.with_scratch_memo m (fun memo ->
         Bdd.Idtbl.replace memo 2 5;
         Bdd.Idtbl.find memo 2));
  Alcotest.(check int) "emptied on entry" (-1)
    (M.with_scratch_memo m (fun memo -> Bdd.Idtbl.find memo 2))

let test_migrate_preserves_semantics () =
  let m = fresh_man () in
  let f = fbuild m (F_ite (F_var 1, F_var 3, F_xor (F_var 0, F_var 4))) in
  let dst, roots, var_map =
    Bdd.Reorder.reorder m ~hyperedges:[ O.support m f ] [ f ]
  in
  (match roots with
   | [ f' ] ->
     List.iter
       (fun env ->
         Alcotest.(check bool) "migrated function" (O.eval m f env)
           (O.eval dst f' (fun v' ->
                (* invert the map: find the source var sent to v' *)
                let rec src v = if var_map v = v' then v else src (v + 1) in
                env (src 0))))
       (all_envs ())
   | _ -> Alcotest.fail "wrong root count")

let test_force_order_improves_shift_relation () =
  (* ns_k <-> cs_{k-1} with a bad (blocked) initial order: FORCE should
     recover an interleaved-like order that shrinks the relation *)
  let k = 8 in
  let m = M.create () in
  let cs = M.new_vars ~prefix:"cs" m k in
  let ns = M.new_vars ~prefix:"ns" m k in
  let rel =
    O.conj m
      (List.map2
         (fun nsv csv -> O.bxnor m (O.var_bdd m nsv) (O.var_bdd m csv))
         ns cs)
  in
  let before = O.size m rel in
  let hyperedges = List.map2 (fun a b -> [ a; b ]) ns cs in
  let dst, roots, _ = Bdd.Reorder.reorder m ~hyperedges [ rel ] in
  let after = M.dag_size dst roots in
  Alcotest.(check bool)
    (Printf.sprintf "reorder shrinks %d -> %d" before after)
    true (after < before)

(* --- QCheck properties ---------------------------------------------------- *)

let prop_build_semantics =
  QCheck.Test.make ~count:300 ~name:"bdd semantics = formula semantics"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      semantics_agree m f (fbuild m f))

(* Manager configurations for the kernel properties. [Plain] is a default
   grow-only manager. Under [Pressure] the operands are built and pinned
   with auto-GC off; [arm] then turns on collection at threshold 0 on a
   16-slot store, so the operations under test collect at nearly every
   store-full [mk], and an id an operation forgot to pin (an intermediate,
   or a node it keys cache entries on) is swept and reused. *)
type config = Plain | Pressure

let config_arb =
  QCheck.make
    ~print:(function Plain -> "plain" | Pressure -> "gc-pressure")
    QCheck.Gen.(oneofl [ Plain; Pressure ])

let config_man = function
  | Plain -> fresh_man ()
  | Pressure ->
    let m = M.create ~initial_capacity:16 () in
    ignore (M.new_vars m nvars : int list);
    m

let arm cfg m =
  if cfg = Pressure then begin
    M.set_auto_gc m true;
    M.set_gc_threshold m 0.0
  end

(* pin an operand, or a result that later operations must not sweep, for
   the manager's lifetime; a pin that is dropped again goes in a root set
   instead *)
let pin m r =
  M.protect m r;
  r

(* [f]'s value on every assignment, indexed by the assignment's bits *)
let truth_table f =
  Array.init (1 lsl nvars) (fun bits -> feval (fun v -> bits land (1 lsl v) <> 0) f)

(* whether [r] is the function of truth table [tt] with each [(v, b)] of
   [lits] fixed to [b] *)
let agrees_fixed m tt lits r =
  Array.for_all Fun.id
    (Array.init (1 lsl nvars) (fun bits ->
         let fixed =
           List.fold_left
             (fun bits (v, b) ->
               if b then bits lor (1 lsl v) else bits land lnot (1 lsl v))
             bits lits
         in
         O.eval m r (fun v -> bits land (1 lsl v) <> 0) = tt.(fixed)))

let prop_not_involutive =
  QCheck.Test.make ~count:200 ~name:"double negation is identity"
    QCheck.(pair config_arb (formula_arb nvars)) (fun (cfg, f) ->
      let m = config_man cfg in
      let b = pin m (fbuild m f) in
      arm cfg m;
      let nb = pin m (O.bnot m b) in
      O.bnot m nb = b)

let prop_exists_semantics =
  QCheck.Test.make ~count:200 ~name:"exists = or of cofactors"
    QCheck.(triple config_arb (formula_arb nvars) (int_bound (nvars - 1)))
    (fun (cfg, f, v) ->
      let m = config_man cfg in
      let b = pin m (fbuild m f) in
      let cube = pin m (O.cube_of_vars m [ v ]) in
      let nlit = pin m (O.nvar_bdd m v) in
      arm cfg m;
      let q = pin m (O.exists m cube b) in
      let lo = pin m (O.cofactor_cube m b nlit) in
      let hi = pin m (O.cofactor_cube m b cube) in
      q = O.bor m lo hi)

let prop_forall_semantics =
  QCheck.Test.make ~count:200 ~name:"forall = and of cofactors"
    QCheck.(triple config_arb (formula_arb nvars) (int_bound (nvars - 1)))
    (fun (cfg, f, v) ->
      let m = config_man cfg in
      let b = pin m (fbuild m f) in
      let cube = pin m (O.cube_of_vars m [ v ]) in
      let nlit = pin m (O.nvar_bdd m v) in
      arm cfg m;
      let q = pin m (O.forall m cube b) in
      let lo = pin m (O.cofactor_cube m b nlit) in
      let hi = pin m (O.cofactor_cube m b cube) in
      q = O.band m lo hi)

let prop_and_exists =
  QCheck.Test.make ~count:200 ~name:"and_exists = exists of and"
    QCheck.(quad config_arb (formula_arb nvars) (formula_arb nvars)
              (list_of_size (QCheck.Gen.int_range 0 3) (int_bound (nvars - 1))))
    (fun (cfg, f, g, vs) ->
      let m = config_man cfg in
      let bf = pin m (fbuild m f) and bg = pin m (fbuild m g) in
      let cube = pin m (O.cube_of_vars m vs) in
      arm cfg m;
      let q = pin m (O.and_exists m cube bf bg) in
      let fg = pin m (O.band m bf bg) in
      q = O.exists m cube fg)

(* a run of one-literal cofactors on one manager, each literal released
   after its call: under [Pressure] a literal swept and re-allocated as
   the next call's literal must not revive the first call's cache
   entries. That takes a collection between the two calls and the id's
   reuse as the very next literal, so the count is high. *)
let prop_cofactor =
  QCheck.Test.make ~count:3000 ~name:"cofactor = formula with the variable fixed"
    QCheck.(triple config_arb (formula_arb nvars)
              (list_of_size (QCheck.Gen.int_range 1 30)
                 (pair (int_bound (nvars - 1)) bool)))
    (fun (cfg, f, lits) ->
      let m = config_man cfg in
      let b = pin m (fbuild m f) in
      let tt = truth_table f in
      arm cfg m;
      List.for_all
        (fun (v, pol) ->
          let r =
            M.with_roots m @@ fun rs ->
            let lit = M.Roots.add rs (O.cube_of_literals m [ (v, pol) ]) in
            O.cofactor_cube m b lit
          in
          agrees_fixed m tt [ (v, pol) ] r)
        lits)

let prop_cofactor_cube =
  QCheck.Test.make ~count:200
    ~name:"cofactor_cube = formula with the literals fixed"
    QCheck.(triple config_arb (formula_arb nvars)
              (list_of_size (QCheck.Gen.int_range 0 3)
                 (pair (int_bound (nvars - 1)) bool)))
    (fun (cfg, f, lits) ->
      let lits = List.sort_uniq (fun (a, _) (b, _) -> compare a b) lits in
      let m = config_man cfg in
      let b = pin m (fbuild m f) in
      let cube = pin m (O.cube_of_literals m lits) in
      arm cfg m;
      agrees_fixed m (truth_table f) lits (O.cofactor_cube m b cube))

(* the standard-triple rewrite of [ite]: ite(f,f,h) is f or h, ite(f,g,f)
   is f and g *)
let prop_ite_standard_triples =
  QCheck.Test.make ~count:200
    ~name:"ite(f,f,h) = ite(f,1,h) and ite(f,g,f) = ite(f,g,0)"
    QCheck.(quad config_arb (formula_arb nvars) (formula_arb nvars)
              (formula_arb nvars))
    (fun (cfg, f, g, h) ->
      let m = config_man cfg in
      let bf = pin m (fbuild m f) and bg = pin m (fbuild m g)
      and bh = pin m (fbuild m h) in
      arm cfg m;
      let ffh = pin m (O.ite m bf bf bh) in
      let f1h = pin m (O.ite m bf M.one bh) in
      let fgf = pin m (O.ite m bf bg bf) in
      let fg0 = O.ite m bf bg M.zero in
      ffh = f1h && fgf = fg0
      && semantics_agree m (F_or (f, h)) ffh
      && semantics_agree m (F_and (f, g)) fgf)

let with_obs = Helpers.with_obs

(* AND and OR key the computed cache with the smaller id first: the second
   operand order returns the same id from one cache probe that hits *)
let prop_commutative_keys =
  QCheck.Test.make ~count:200 ~name:"band/bor: both orders share a cache entry"
    QCheck.(triple config_arb (formula_arb nvars) (formula_arb nvars))
    (fun (cfg, f, g) ->
      let m = config_man cfg in
      let bf = pin m (fbuild m f) and bg = pin m (fbuild m g) in
      arm cfg m;
      let terminal = M.is_const bf || M.is_const bg || bf = bg in
      let ite_probes () =
        ( Obs.Counter.find "bdd.cache.lookups.ite",
          Obs.Counter.find "bdd.cache.hits.ite" )
      in
      let both_orders op =
        let r = pin m (op m bf bg) in
        let lookups, hits = ite_probes () in
        let r' = op m bg bf in
        r = r'
        && (terminal || ite_probes () = (lookups + 1, hits + 1))
      in
      with_obs (fun () -> both_orders O.band && both_orders O.bor))

(* AND and OR run as two-operand recursions on ite's cache entries:
   [band f g] stores ite's (a, b, 0) entry and [bor f g] its (a, 1, b)
   entry, with a < b, and an [ite] that normalises to either triple
   leaves the entry the pair recursion then hits *)
let prop_pair_recursions =
  QCheck.Test.make ~count:200 ~name:"band/bor = ite, on ite's cache entries"
    QCheck.(triple config_arb (formula_arb nvars) (formula_arb nvars))
    (fun (cfg, f, g) ->
      let m = config_man cfg in
      let bf = pin m (fbuild m f) and bg = pin m (fbuild m g) in
      arm cfg m;
      let keyed = not (M.is_const bf || M.is_const bg || bf = bg) in
      let a = min bf bg and b = max bf bg in
      let conj = pin m (O.band m bf bg) in
      let conj_entry =
        (not keyed) || M.cache_find m M.Op.ite a b M.zero = conj
      in
      let disj = pin m (O.bor m bf bg) in
      let disj_entry =
        (not keyed) || M.cache_find m M.Op.ite a M.one b = disj
      in
      (* ite(g, f, g) = ite(g, f, 0) and ite(f, f, g) = ite(f, 1, g) *)
      let hit_after_ite ite_form pair r =
        M.clear_caches m;
        let r' = pin m (ite_form ()) in
        let lookups = Obs.Counter.find "bdd.cache.lookups.ite" in
        let hits = Obs.Counter.find "bdd.cache.hits.ite" in
        let r'' = pair m bf bg in
        r' = r && r'' = r
        && ((not keyed)
           || (Obs.Counter.find "bdd.cache.lookups.ite" = lookups + 1
              && Obs.Counter.find "bdd.cache.hits.ite" = hits + 1))
      in
      conj_entry && disj_entry
      && semantics_agree m (F_and (f, g)) conj
      && semantics_agree m (F_or (f, g)) disj
      && with_obs (fun () ->
             hit_after_ite (fun () -> O.ite m bg bf bg) O.band conj
             && hit_after_ite (fun () -> O.ite m bf bf bg) O.bor disj))

(* --- support by marking -------------------------------------------------- *)

(* the reference support: every level met on a visited-table walk *)
let reference_support m f =
  let seen = Hashtbl.create 16 and levels = Hashtbl.create 16 in
  let rec go f =
    if (not (M.is_const f)) && not (Hashtbl.mem seen f) then begin
      Hashtbl.replace seen f ();
      Hashtbl.replace levels (M.var m f) ();
      go (M.low m f);
      go (M.high m f)
    end
  in
  go f;
  List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) levels [])

(* Each formula is built, checked and released in turn. Under [Pressure]
   a collection follows, so the next formula's nodes reuse the swept ids
   and a support memo entry left behind for a swept id would be read
   back for a different node. *)
let prop_support_reference =
  QCheck.Test.make ~count:200 ~name:"support = reference walk"
    QCheck.(pair config_arb
              (list_of_size (QCheck.Gen.int_range 1 6) (formula_arb nvars)))
    (fun (cfg, fs) ->
      let m = config_man cfg in
      List.for_all
        (fun f ->
          let ok =
            M.with_roots m @@ fun rs ->
            let b = M.Roots.add rs (fbuild m f) in
            (* the second call reads the memo *)
            O.support m b = reference_support m b
            && O.support m b = reference_support m b
          in
          if cfg = Pressure then ignore (M.collect m : int);
          ok)
        fs)

(* [support] and [dag_size] mark nodes by moving their level; afterwards
   every id up to the highest the walks can reach, constants and free
   slots included, must read back the level it had before *)
let prop_marks_cleared =
  QCheck.Test.make ~count:200 ~name:"support and dag_size leave no mark"
    QCheck.(pair config_arb
              (list_of_size (QCheck.Gen.int_range 1 6) (formula_arb nvars)))
    (fun (cfg, fs) ->
      let m = config_man cfg in
      (* a shared DAG: every root pinned; under [Pressure] the garbage of
         the construction is swept first, leaving free slots *)
      let roots =
        M.zero :: M.one :: List.map (fun f -> pin m (fbuild m f)) fs
      in
      if cfg = Pressure then ignore (M.collect m : int);
      let rec top id =
        if M.is_const id then id
        else max id (max (top (M.low m id)) (top (M.high m id)))
      in
      let top = List.fold_left (fun acc r -> max acc (top r)) 0 roots in
      let levels () = Array.init (top + 1) (M.var m) in
      let before = levels () in
      List.iter (fun r -> ignore (O.support m r : int list)) roots;
      ignore (M.dag_size m roots : int);
      levels () = before)

(* --- the epoch-tagged computed cache ------------------------------------- *)

(* [∃ vs. φ] at [bits], where [tt] is [φ]'s truth table *)
let exists_tt tt vs bits =
  let rec go bits = function
    | [] -> tt.(bits)
    | v :: vs -> go (bits land lnot (1 lsl v)) vs || go (bits lor (1 lsl v)) vs
  in
  go bits vs

let bit bits v = bits land (1 lsl v) <> 0
let tables k = Array.init (1 lsl nvars) k

(* whether [r] is an ordered BDD over the manager's variables: levels
   strictly increase along every edge, so a stale cache hit that wired a
   cycle into the store fails here instead of sending [O.eval] round it
   forever *)
let rec ordered m r =
  M.is_const r
  || (M.var m r >= 0 && M.var m r < nvars
      && List.for_all
           (fun c -> M.var m c > M.var m r && ordered m c)
           [ M.low m r; M.high m r ])

(* whether [r]'s truth table is [tt] *)
let exact m r tt =
  ordered m r && tables (fun bits -> O.eval m r (bit bits)) = tt

(* The literals of all [nvars] variables in both polarities, in a random
   order, as [(variable, positive)] pairs with their truth tables *)
let shuffled_literals rand =
  let lits =
    Array.init (2 * nvars) (fun i -> (i mod nvars, i < nvars))
  in
  QCheck.Gen.shuffle_a lits rand;
  (lits, Array.map (fun (v, pos) -> tables (fun bits -> bit bits v = pos)) lits)

(* A round of ite, exists and and_exists on the literals alone, with
   collection off. It starts on an empty store, whose free list hands out
   ids 2, 3, … in order, so every such round puts its literals on the
   same ids, each time for other variables and polarities: its cache keys
   recur with new meanings. *)
let literal_round m rand =
  M.set_auto_gc m false;
  let lits, tts = shuffled_literals rand in
  let ids =
    Array.map
      (fun (v, pos) -> if pos then O.var_bdd m v else O.nvar_bdd m v)
      lits
  in
  let n = Array.length ids in
  let ok = ref true in
  for i = 0 to n - 1 do
    let v, pos = lits.(i) in
    for j = 0 to n - 1 do
      (* a positive literal is the cube of its variable *)
      if pos && i <> j then begin
        let j' = (j + 1) mod n in
        let conj = Array.map2 ( && ) tts.(j) tts.(j') in
        ok :=
          !ok
          && exact m (O.exists m ids.(i) ids.(j))
               (tables (exists_tt tts.(j) [ v ]))
          && exact m (O.and_exists m ids.(i) ids.(j) ids.(j'))
               (tables (exists_tt conj [ v ]))
      end;
      for k = 0 to n - 1 do
        if i <> j && j <> k && i <> k then
          ok :=
            !ok
            && exact m (O.ite m ids.(i) ids.(j) ids.(k))
                 (tables (fun b ->
                      if tts.(i).(b) then tts.(j).(b) else tts.(k).(b)))
      done
    done
  done;
  !ok

(* A round on small random formulas: ite, and_exists, exists and a
   one-literal cofactor, each checked against truth tables, under
   [Pressure] when [armed] *)
let formula_round m rand ~armed =
  M.set_auto_gc m false;
  let gen () =
    QCheck.Gen.(
      generate1 ~rand (sized_size (int_bound 6) (formula_sized nvars)))
  in
  let f = gen () and g = gen () and h = gen () in
  M.with_roots m @@ fun rs ->
  let bf = M.Roots.add rs (fbuild m f) and bg = M.Roots.add rs (fbuild m g) in
  let bh = M.Roots.add rs (fbuild m h) in
  let vs =
    List.filter (fun _ -> Random.State.bool rand) (List.init nvars Fun.id)
  in
  let cube = M.Roots.add rs (O.cube_of_vars m vs) in
  let v = Random.State.int rand nvars and pol = Random.State.bool rand in
  let lit = M.Roots.add rs (O.cube_of_literals m [ (v, pol) ]) in
  let tf = truth_table f and tg = truth_table g and th = truth_table h in
  if armed then arm Pressure m;
  (* each result is checked before the next operation can sweep it; the
     round's pins go when it returns *)
  exact m (O.ite m bf bg bh)
    (tables (fun b -> if tf.(b) then tg.(b) else th.(b)))
  && exact m (O.and_exists m cube bf bg)
       (tables (exists_tt (Array.map2 ( && ) tf tg) vs))
  && exact m (O.exists m cube bf) (tables (exists_tt tf vs))
  &&
  let r = O.cofactor_cube m bf lit in
  ordered m r && agrees_fixed m tf [ (v, pol) ] r

(* Rounds under [Pressure], each ending in a collection that sweeps all
   of it, until the collections have wrapped the cache's epoch field (128
   collections) four times. Each round's nodes reuse the ids the last one
   freed, so an entry from an earlier epoch that still matched would hand
   back a node of another function. Literal rounds run after collections
   1, 2, 4, …, 512: a skipped epoch bump shows at the second, and an
   epoch that comes round again without the array being emptied shows
   when the ones after collections 256 and 512 probe, at the same epoch,
   the entries the one after the previous wrap left. Formula rounds run
   after every other collection, armed as in the other [Pressure]
   properties except shortly before a literal round, so that no
   collection inside them shifts the literal rounds off their counts. *)
let prop_epoch_wrap =
  QCheck.Test.make ~count:4 ~name:"ops exact across computed-cache epoch wraps"
    (* a seed has nothing to shrink *)
    (QCheck.make ~print:string_of_int QCheck.Gen.nat)
    (fun seed ->
      Helpers.with_obs @@ fun () ->
      let rand = Random.State.make [| seed |] in
      let m = config_man Pressure in
      let ok = ref true and next = ref 1 in
      while !ok && Helpers.gc_runs () < 600 do
        let runs = Helpers.gc_runs () in
        if runs >= !next then begin
          next := 2 * runs;
          ok := literal_round m rand
        end
        else ok := formula_round m rand ~armed:(!next - runs > 64);
        ignore (M.collect m : int)
      done;
      !ok)

let prop_sat_count =
  QCheck.Test.make ~count:200 ~name:"sat_count = brute count"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let brute =
        List.length (List.filter (fun env -> feval env f) (all_envs ()))
      in
      Float.abs (O.sat_count m b nvars -. float_of_int brute) < 1e-6)

let prop_rename_roundtrip =
  QCheck.Test.make ~count:200 ~name:"rename there and back"
    (formula_arb 3) (fun f ->
      (* rename {0,1,2} -> {3,4,0} (not order-preserving) and back *)
      let m = fresh_man () in
      let b = fbuild m f in
      let r = O.rename m b [ (0, 3); (1, 4); (2, 0) ] in
      let back = O.rename m r [ (3, 0); (4, 1); (0, 2) ] in
      back = b)

(* The rename against the reference that rebuilt its map and memo per
   call: on two managers with the same history, the same result id, the
   same number of [mk] calls and the same nodes under the same ids, so
   the same node stream. The maps are
   drawn over vars [0, 8) for BDDs over [0, 5): some are monotone on the
   support (a shift), some are not (a random permutation), and some name
   variables the BDD does not have. *)
let prop_rename_reference =
  let map_gen =
    QCheck.Gen.(
      oneof
        [ map (fun k -> List.init 5 (fun v -> (v, v + k))) (int_range 0 3);
          map
            (fun seed ->
              let st = Random.State.make [| seed |] in
              let perm = Array.init 8 Fun.id in
              for i = 7 downto 1 do
                let j = Random.State.int st (i + 1) in
                let t = perm.(i) in
                perm.(i) <- perm.(j);
                perm.(j) <- t
              done;
              List.filter_map
                (fun v ->
                  if Random.State.int st 4 = 0 then None else Some (v, perm.(v)))
                (List.init 8 Fun.id))
            int ])
  in
  let map_arb =
    QCheck.make
      ~print:(fun l ->
        String.concat " "
          (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) l))
      map_gen
  in
  QCheck.Test.make ~count:300 ~name:"rename matches the Hashtbl reference"
    QCheck.(pair (formula_arb nvars) map_arb)
    (fun (f, pairs) ->
      let run rename =
        let m = Helpers.fresh_man ~nvars:8 () in
        let r, mk_calls, created =
          Helpers.with_obs (fun () ->
              let b = fbuild m f in
              let mk0 = Obs.Counter.find "bdd.mk_calls" in
              let r = rename m b pairs in
              ( r,
                Obs.Counter.find "bdd.mk_calls" - mk0,
                Obs.Counter.find "bdd.nodes_created" ))
        in
        (* every node, in the order of creation: the manager never
           collects, so its nodes are ids 2 to [created + 1] *)
        let store =
          List.init created (fun i ->
              let id = i + 2 in
              (M.var m id, M.low m id, M.high m id))
        in
        (r, mk_calls, store)
      in
      run O.rename = run Reference.Rename.rename)

(* [pick_cube] is [cube_of_literals] of [pick_minterm]: the same cube
   from the same [mk] calls *)
let prop_pick_cube =
  QCheck.Test.make ~count:300 ~name:"pick_cube = cube of pick_minterm"
    (formula_arb nvars) (fun f ->
      let run pick =
        let m = fresh_man () in
        let b = fbuild m f in
        Obs.reset ();
        Obs.set_enabled true;
        let c =
          Fun.protect
            ~finally:(fun () -> Obs.set_enabled false)
            (fun () -> pick m b)
        in
        ( c,
          Obs.Counter.find "bdd.mk_calls",
          Obs.Counter.find "bdd.nodes_created" )
      in
      let vars = List.init nvars Fun.id in
      run (fun m b -> O.pick_cube m b vars)
      = run (fun m b ->
            match O.pick_minterm m b vars with
            | Some lits -> O.cube_of_literals m lits
            | None -> M.zero))

let prop_subst_semantics =
  QCheck.Test.make ~count:200 ~name:"subst matches substituted formula"
    QCheck.(triple (formula_arb 3) (formula_arb nvars) (int_bound 2))
    (fun (f, g, v) ->
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g in
      let s = Reference.Rename.subst m bf (fun w -> if w = v then Some bg else None) in
      List.for_all
        (fun env ->
          let env' w = if w = v then feval env g else env w in
          O.eval m s env = feval env' f)
        (all_envs ()))

let prop_exists_nested =
  QCheck.Test.make ~count:150 ~name:"multi-var exists = nested exists"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let both = O.exists m (O.cube_of_vars m [ 1; 3 ]) b in
      let nested =
        O.exists m (O.cube_of_vars m [ 3 ]) (O.exists m (O.cube_of_vars m [ 1 ]) b)
      in
      both = nested)

let prop_compose_sequential =
  QCheck.Test.make ~count:150
    ~name:"sequential compose on disjoint vars = simultaneous subst"
    QCheck.(triple (formula_arb 2) (formula_arb nvars) (formula_arb nvars))
    (fun (f, g, h) ->
      let m = fresh_man () in
      let bf = fbuild m f and bg = fbuild m g and bh = fbuild m h in
      (* substitute for vars 0 and 1 of f; g and h may mention any vars, so
         do the simultaneous substitution as the reference *)
      let simultaneous =
        Reference.Rename.subst m bf (fun v ->
            if v = 0 then Some bg else if v = 1 then Some bh else None)
      in
      (* semantic check against brute-force evaluation *)
      List.for_all
        (fun env ->
          let env' v =
            if v = 0 then feval env g
            else if v = 1 then feval env h
            else env v
          in
          O.eval m simultaneous env = feval env' f)
        (all_envs ()))

(* the literals of a cover row over [columns] *)
let decode_row columns row =
  List.concat
    (List.mapi
       (fun k v ->
         match row.[k] with
         | '1' -> [ (v, true) ]
         | '0' -> [ (v, false) ]
         | _ -> [])
       columns)

(* the ISOP cover of [b], one cube BDD per row of [cover_rows] *)
let cover_cubes m b =
  let columns = List.init nvars Fun.id in
  List.map
    (fun row -> O.cube_of_literals m (decode_row columns row))
    (Bdd.Isop.cover_rows m ~columns b)

let prop_isop_exact =
  QCheck.Test.make ~count:200 ~name:"isop cover rebuilds exactly f"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      O.disj m (cover_cubes m b) = b)

(* [cover_rows] starts the ISOP recursion on the interval [f, f], and the
   recursion narrows it to sub-intervals (L, U) with L strictly below U:
   every cube must lie inside U, so inside f, and name only variables of
   f's support (the rebuild above checks that the cubes cover L) *)
let prop_isop_interval =
  QCheck.Test.make ~count:200 ~name:"isop respects the (L,U) interval"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let support = O.support m b in
      List.for_all
        (fun c ->
          O.bdiff m c b = M.zero
          && List.for_all (fun v -> List.mem v support) (O.support m c))
        (cover_cubes m b))

let prop_isop_irredundant =
  QCheck.Test.make ~count:100 ~name:"isop cover is irredundant"
    (formula_arb 4) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let cover = cover_cubes m b in
      (* dropping any single cube loses some minterm of f *)
      List.for_all
        (fun cube ->
          let rest = List.filter (fun c -> c <> cube) cover in
          O.disj m rest <> b)
        cover
      || cover = [])

(* the rows name variables by column, in any column order: reading each
   row back as a cube over [columns] rebuilds f *)
let prop_cover_rows =
  QCheck.Test.make ~count:200 ~name:"cover rows decode to a cover of f"
    QCheck.(pair (formula_arb nvars) small_nat)
    (fun (f, seed) ->
      let m = fresh_man () in
      let b = fbuild m f in
      let rng = Random.State.make [| seed |] in
      let columns =
        List.init nvars (fun v -> (Random.State.bits rng, v))
        |> List.sort compare |> List.map snd
      in
      let rows = Bdd.Isop.cover_rows m ~columns b in
      List.for_all (fun row -> String.length row = nvars) rows
      && O.disj m
           (List.map
              (fun row -> O.cube_of_literals m (decode_row columns row))
              rows)
         = b)

let prop_cubes_partition =
  QCheck.Test.make ~count:150 ~name:"cubes are disjoint and cover f"
    (formula_arb nvars) (fun f ->
      let m = fresh_man () in
      let b = fbuild m f in
      let cs = List.map (O.cube_of_literals m) (Bdd.Cube.cubes m b) in
      let cover = O.disj m cs in
      let rec pairwise_disjoint = function
        | [] -> true
        | c :: rest ->
          List.for_all (fun d -> O.band m c d = M.zero) rest
          && pairwise_disjoint rest
      in
      cover = b && pairwise_disjoint cs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_build_semantics; prop_not_involutive; prop_exists_semantics;
      prop_forall_semantics; prop_and_exists; prop_cofactor;
      prop_cofactor_cube; prop_ite_standard_triples;
      prop_commutative_keys; prop_pair_recursions; prop_support_reference;
      prop_marks_cleared; prop_epoch_wrap; prop_sat_count;
      prop_rename_roundtrip; prop_rename_reference; prop_pick_cube;
      prop_subst_semantics;
      prop_cubes_partition;
      prop_exists_nested; prop_compose_sequential;
      prop_isop_exact; prop_isop_interval; prop_isop_irredundant;
      prop_cover_rows ]

let () =
  Alcotest.run "bdd"
    [ ( "unit",
        [ Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "var semantics" `Quick test_var_semantics;
          Alcotest.test_case "canonicity" `Quick test_canonicity;
          Alcotest.test_case "de morgan" `Quick test_de_morgan;
          Alcotest.test_case "ite truth table" `Quick test_ite_truth_table;
          Alcotest.test_case "exists" `Quick test_exists_semantics;
          Alcotest.test_case "forall" `Quick test_forall_semantics;
          Alcotest.test_case "rename swap" `Quick test_rename_swap;
          Alcotest.test_case "rename shift" `Quick test_rename_shift;
          Alcotest.test_case "support" `Quick test_support;
          Alcotest.test_case "sat count" `Quick test_sat_count;
          Alcotest.test_case "cofactor" `Quick test_cofactor;
          Alcotest.test_case "cofactor cube" `Quick test_cofactor_cube;
          Alcotest.test_case "cube enumeration" `Quick test_cube_enumeration;
          Alcotest.test_case "node limit" `Quick test_node_limit;
          Alcotest.test_case "limit failure reasons" `Quick test_limit_failure;
          Alcotest.test_case "print" `Quick test_print;
          Alcotest.test_case "shared size" `Quick test_shared_size;
          Alcotest.test_case "var names" `Quick test_var_names;
          Alcotest.test_case "lossy cache soundness" `Quick
            test_cache_lossy_is_sound;
          Alcotest.test_case "cache probe results" `Quick
            test_cache_probe_results;
          Alcotest.test_case "cache op tags never alias" `Quick
            test_cache_ops_never_alias;
          Alcotest.test_case "cache entries at the packed fields' edges"
            `Quick test_cache_packed_edges;
          Alcotest.test_case "cache emptied by clear, collect, growth" `Quick
            test_cache_emptied;
          Alcotest.test_case "levels past 16 bits" `Quick test_wide_levels;
          Alcotest.test_case "pick minterm" `Quick test_pick_minterm;
          Alcotest.test_case "idtbl" `Quick test_idtbl;
          Alcotest.test_case "scratch memo does not nest" `Quick
            test_scratch_memo_nesting;
          Alcotest.test_case "migrate semantics" `Quick
            test_migrate_preserves_semantics;
          Alcotest.test_case "force order" `Quick
            test_force_order_improves_shift_relation ] );
      ( "chunked",
        [ Alcotest.test_case "growth empties every chunk" `Quick
            test_cache_chunks_grow;
          Alcotest.test_case "epoch wrap empties every chunk" `Quick
            test_cache_chunks_wrap;
          Alcotest.test_case "the cache starts at the store's capacity"
            `Quick test_cache_initial_size ] );
      ("properties", qcheck_cases) ]
