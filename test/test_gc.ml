(* Tests for the in-place mark-and-sweep collector: sweep/reuse mechanics,
   pin discipline (lifelong pins, root sets, freezing), the live-node
   semantics of the node limit, cache/GC interleaving, the observability
   counters, and the geometric growth of the variable tables. Semantic
   checks are truth-table exact over all environments (5 variables). *)

module M = Bdd.Manager
module O = Bdd.Ops

let nvars = Helpers.default_nvars
let all_envs () = Helpers.all_envs ~nvars ()

(* the ids reachable from [root] (excluding constants), via the child
   pointers the collector itself follows *)
let reachable m root =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (M.is_const id) && not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      go (M.low m id);
      go (M.high m id)
    end
  in
  go root;
  seen

let truth_table m f = List.map (O.eval m f) (all_envs ())

(* a function with a nontrivial BDD: the majority of three literals *)
let majority m =
  O.bor m
    (O.bor m
       (O.band m (O.var_bdd m 0) (O.var_bdd m 1))
       (O.band m (O.var_bdd m 1) (O.var_bdd m 2)))
    (O.band m (O.var_bdd m 0) (O.var_bdd m 2))

(* Churn out short-lived nodes none of which is kept: one minterm chain
   per round over all the manager's variables, distinct per round (via
   [salt]), dead by the next. Built with raw [mk] — which pins its own two
   arguments — so the churn itself is GC-safe with nothing rooted. *)
let minterm_chain m i =
  let n = M.num_vars m in
  let f = ref M.one in
  for v = n - 1 downto 0 do
    f :=
      (if (i lsr v) land 1 = 1 then M.mk m v M.zero !f else M.mk m v !f M.zero)
  done;
  !f

let make_garbage ?(salt = 0) m rounds =
  for r = 1 to rounds do
    ignore (minterm_chain m (salt + r) : int)
  done

(* a tiny collecting store over enough variables that every churn round
   allocates (automatic collection is opt-in on a fresh manager) *)
let tiny_man () =
  let m = M.create ~initial_capacity:64 () in
  M.set_auto_gc m true;
  ignore (M.new_vars m 16 : int list);
  m

(* --- sweep mechanics --------------------------------------------------------- *)

let test_sweep_and_reuse () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  let live_before = reachable m f in
  let tt_before = truth_table m f in
  (* dead nodes: an unpinned function not sharing structure with [f] *)
  let g = O.bxor m (O.bxor m (O.var_bdd m 3) (O.var_bdd m 4)) (O.var_bdd m 0) in
  let dead =
    Hashtbl.fold
      (fun id () acc -> if Hashtbl.mem live_before id then acc else id :: acc)
      (reachable m g) []
  in
  Alcotest.(check bool) "the doomed function has own nodes" true (dead <> []);
  make_garbage m 50;
  (* a node over a variable no node uses yet is new, and no id was freed
     yet: it takes the highest id of the store *)
  let top = O.var_bdd m (M.new_var m) in
  let swept = M.collect m in
  Alcotest.(check bool) "something was swept" true (swept >= List.length dead);
  (* no swept id is reachable from the pinned root... *)
  let live_after = reachable m f in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "dead id %d not reachable from the pinned root" id)
        false (Hashtbl.mem live_after id))
    dead;
  (* ...the live ids did not move (no compaction)... *)
  Alcotest.(check int) "live set size unchanged" (Hashtbl.length live_before)
    (Hashtbl.length live_after);
  Hashtbl.iter
    (fun id () ->
      Alcotest.(check bool)
        (Printf.sprintf "live id %d survived in place" id)
        true (Hashtbl.mem live_after id))
    live_before;
  (* ...the function is intact... *)
  Alcotest.(check (list bool)) "truth table preserved" tt_before
    (truth_table m f);
  (* ...and fresh allocations take swept ids instead of growing the store:
     [h] shares no node with [f], so all of its nodes are new *)
  let h = O.band m (O.var_bdd m 3) (O.var_bdd m 4) in
  Hashtbl.iter
    (fun id () ->
      Alcotest.(check bool)
        (Printf.sprintf "new node %d takes a swept id" id)
        true
        (id <= top && not (Hashtbl.mem live_before id)))
    (reachable m h);
  Alcotest.(check bool) "recycled node works" true
    (O.eval m h (fun v -> v = 3 || v = 4))

let test_rebuilt_unique_table_canonical () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  make_garbage m 30;
  ignore (M.collect m : int);
  (* canonicity across the collection, which leaves swept entries in the
     table: recomputing a live function must find the surviving node, not
     allocate a duplicate *)
  Alcotest.(check int) "recomputation hits the live node" f (majority m)

(* a swept id stays in the unique table under its old triple; once the id
   holds another triple, that entry must not answer for the old one *)
let test_stale_entry_never_answers () =
  let m = M.create () in
  ignore (M.new_vars m nvars : int list);
  let old = M.mk m 2 M.zero M.one in
  ignore (M.collect m : int);
  let reused = M.mk m 3 M.one M.zero in
  Alcotest.(check int) "the swept id is reused first" old reused;
  let again = M.mk m 2 M.zero M.one in
  Alcotest.(check bool) "the old triple gets a fresh id" true (again <> old);
  Alcotest.(check (list int)) "the fresh node holds the old triple"
    [ 2; M.zero; M.one ]
    [ M.var m again; M.low m again; M.high m again ];
  Alcotest.(check (list int)) "the reused id keeps its new triple"
    [ 3; M.one; M.zero ]
    [ M.var m reused; M.low m reused; M.high m reused ];
  Alcotest.(check int) "the old triple is canonical again" again
    (M.mk m 2 M.zero M.one)

let test_collect_inside_frozen_rejected () =
  let m = Helpers.fresh_man ~nvars () in
  Helpers.check_invalid_arg "collect under with_frozen" "frozen" (fun () ->
      M.with_frozen m (fun () -> M.collect m))

let test_frozen_defers_auto_gc () =
  Helpers.with_obs @@ fun () ->
  let m = tiny_man () in
  M.set_gc_threshold m 0.0;
  (* enough churn to overflow a 64-slot store many times over *)
  M.with_frozen m (fun () -> make_garbage m 200);
  Alcotest.(check int) "no collection while frozen" 0 (Helpers.gc_runs ());
  (* fresh chains after the thaw refill the grown store until it collects *)
  make_garbage ~salt:10_000 m 500;
  Alcotest.(check bool) "collections resume after thaw" true
    (Helpers.gc_runs () > 0)

(* --- pin discipline ----------------------------------------------------------- *)

(* [protect] pins for the manager's lifetime: a pin outlives a root set
   released after it, and pinning an id twice is harmless *)
let test_protect_for_good () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  M.protect m f;
  let tt = truth_table m f in
  M.with_roots m (fun rs ->
      ignore (M.Roots.add rs (O.bxor m (O.var_bdd m 3) (O.var_bdd m 4)) : int));
  ignore (M.collect m : int);
  Alcotest.(check (list bool)) "survives the collection" tt (truth_table m f);
  Alcotest.(check int) "live count = recount from the pin"
    (2 + Hashtbl.length (reachable m f)) (M.live_nodes m)

let test_roots_set_scoped () =
  let m = Helpers.fresh_man ~nvars () in
  let f = ref M.zero in
  let tt = ref [] in
  M.with_roots m (fun rs ->
      f := M.Roots.add rs (majority m);
      tt := truth_table m !f;
      make_garbage m 30;
      ignore (M.collect m : int);
      Alcotest.(check (list bool)) "pinned via the set" !tt (truth_table m !f));
  (* the scope released the set: the function is garbage now *)
  let ids = reachable m !f in
  let swept = M.collect m in
  Alcotest.(check bool) "released roots are swept" true
    (swept >= Hashtbl.length ids);
  (* nothing is live, so the lowest swept id is reused first: the sweep
     was in place, and the new node does not grow the store *)
  let lowest = Hashtbl.fold (fun id () acc -> min id acc) ids max_int in
  Alcotest.(check bool) "sweep is in place" true
    (M.mk m 4 M.zero M.one <= lowest)

(* the scope releases its set when the body raises, too: a function pinned
   only inside it survives a collection there and is swept by the next
   one after the exception *)
let test_roots_released_on_raise () =
  let m = Helpers.fresh_man ~nvars () in
  let f = ref M.zero in
  (match
     M.with_roots m (fun rs ->
         f := M.Roots.add rs (majority m);
         make_garbage m 30;
         ignore (M.collect m : int);
         Alcotest.(check int) "pinned via the set while the body runs"
           (2 + Hashtbl.length (reachable m !f))
           (M.live_nodes m);
         failwith "the body raises")
   with
   | () -> Alcotest.fail "with_roots lost the body's exception"
   | exception Failure _ -> ());
  let ids = Hashtbl.length (reachable m !f) in
  let swept = M.collect m in
  Alcotest.(check bool) "released on the raise: swept" true (swept >= ids);
  Alcotest.(check int) "only the constants live" 2 (M.live_nodes m)

let test_auto_gc_respects_pins () =
  (* a tiny store forced through many automatic collections must never
     corrupt the pinned function *)
  Helpers.with_obs @@ fun () ->
  let m = tiny_man () in
  M.set_gc_threshold m 0.0;
  let f = majority m in
  M.protect m f;
  let tt = truth_table m f in
  make_garbage m 500;
  Alcotest.(check bool) "the collector ran" true (Helpers.gc_runs () > 0);
  Alcotest.(check (list bool)) "pinned function intact" tt (truth_table m f)

(* After [Quantify.and_exists_list], [Image.forward] and [Reach.fixpoint]
   return, a collection must leave exactly the nodes reachable from the
   caller's own pins: a loop that kept a superseded iterate on the operand
   stack, or an exit that left a pin there, shows as extra live nodes. The
   loops run on a 16-slot store that collects at nearly every store-full
   [mk], so their results are also checked against a grow-only run. The
   fixpoint runs to both exits, [Reached] (a 4-bit counter's 16 states)
   and [Met_bad] (state 5, tested by a nested [and_exists_list]). *)
let test_loops_leave_only_caller_pins () =
  let module S = Network.Symbolic in
  let setup ~gc =
    let m = M.create ~initial_capacity:16 () in
    (* [of_netlist] protects the network's functions for good *)
    let sym = S.of_netlist m (Circuits.Generators.counter 4) in
    let parts = Img.Partition.of_functions m (S.transition_parts sym) in
    List.iter (M.protect m) parts;
    if gc then begin
      M.set_auto_gc m true;
      M.set_gc_threshold m 0.0
    end;
    (m, sym, parts)
  in
  Helpers.with_obs @@ fun () ->
  let m, sym, parts = setup ~gc:true in
  let m0, sym0, parts0 = setup ~gc:false in
  let state5 =
    O.cube_of_literals m
      (List.mapi (fun k v -> (v, (5 lsr k) land 1 = 1)) sym.S.state_vars)
  in
  M.protect m state5;
  let pins =
    state5 :: sym.S.init_cube :: parts
    @ sym.S.next_fns @ List.map snd sym.S.output_fns
  in
  let only_pins_live what =
    ignore (M.collect m : int);
    let live = Hashtbl.create 256 in
    List.iter
      (fun r -> Hashtbl.iter (Hashtbl.replace live) (reachable m r))
      pins;
    Alcotest.(check int)
      (what ^ ": live count = recount from the caller's pins")
      (2 + Hashtbl.length live) (M.live_nodes m)
  in
  let n = M.num_vars m in
  let table m f =
    List.init (1 lsl n) (fun bits ->
        O.eval m f (fun v -> bits land (1 lsl v) <> 0))
  in
  let quantify sym = sym.S.input_vars @ sym.S.state_vars in
  let conj sym parts =
    Img.Quantify.and_exists_list sym.S.man (sym.S.init_cube :: parts)
      ~quantify:(quantify sym)
  in
  Alcotest.(check (list bool)) "and_exists_list result"
    (table m0 (conj sym0 parts0)) (table m (conj sym parts));
  only_pins_live "and_exists_list";
  let image sym parts =
    Img.Image.forward sym.S.man
      ~strategy:(Img.Image.Partitioned Img.Quantify.Greedy) ~parts
      ~quantify:(quantify sym) ~rename:(S.ns_to_cs sym)
  in
  Alcotest.(check (list bool)) "Image.forward result"
    (table m0 (image sym0 parts0 sym0.S.init_cube))
    (table m (image sym parts sym.S.init_cube));
  only_pins_live "Image.forward";
  (match Img.Reach.fixpoint m ~image:(image sym parts) sym.S.init_cube with
   | Img.Reach.Reached { reached; steps } ->
     Alcotest.(check (pair (float 0.) int)) "16 states in 16 images"
       (16.0, 16) (Img.Reach.count_states sym reached, steps)
   | Img.Reach.Met_bad -> Alcotest.fail "no bad predicate");
  only_pins_live "fixpoint, Reached";
  let bad frontier =
    Img.Quantify.and_exists_list m [ frontier; state5 ]
      ~quantify:sym.S.state_vars
    <> M.zero
  in
  (match
     Img.Reach.fixpoint m ~bad ~image:(image sym parts) sym.S.init_cube
   with
   | Img.Reach.Met_bad -> ()
   | Img.Reach.Reached _ -> Alcotest.fail "state 5 is reachable");
  only_pins_live "fixpoint, Met_bad";
  Alcotest.(check bool)
    (Printf.sprintf "collections inside the loops (%d runs, 4 explicit)"
       (Helpers.gc_runs ()))
    true
    (Helpers.gc_runs () > 4)

(* --- the node limit bounds live nodes ----------------------------------------- *)

let test_node_limit_is_live_count () =
  let m = tiny_man () in
  M.set_node_limit m (Some 200);
  (* transient garbage far beyond the budget: collections keep the live
     count low, so this must not raise *)
  make_garbage m 300;
  Alcotest.(check bool) "stayed under the live budget" true
    (M.live_nodes m < 200);
  (* but a genuinely live population over the budget must still raise,
     even though collections are available *)
  Alcotest.check_raises "live blow-up" M.Node_limit_exceeded (fun () ->
      for i = 1 to 400 do
        M.protect m (minterm_chain m i)
      done)

let test_gc_off_grows_only () =
  Helpers.with_obs @@ fun () ->
  let m = tiny_man () in
  M.set_auto_gc m false;
  make_garbage m 300;
  Alcotest.(check int) "no collections" 0 (Helpers.gc_runs ());
  Alcotest.(check bool) "the store grew instead" true
    (Obs.Counter.find "bdd.nodes.grows" > 0)

(* --- caches and GC ------------------------------------------------------------ *)

let test_clear_caches_gc_interleaving () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  let g = O.bxor m (O.var_bdd m 3) (O.var_bdd m 4) in
  M.protect m g;
  let fg = O.band m f g in
  let tt = truth_table m fg in
  M.protect m fg;
  (* each step invalidates cache entries whose operands or results may
     have been swept; recomputation must keep returning the live node *)
  M.clear_caches m;
  Alcotest.(check int) "same result after clear_caches" fg (O.band m f g);
  make_garbage m 40;
  ignore (M.collect m : int);
  Alcotest.(check int) "same result after collect" fg (O.band m f g);
  M.clear_caches m;
  ignore (M.collect m : int);
  M.clear_caches m;
  Alcotest.(check int) "same result after both" fg (O.band m f g);
  Alcotest.(check (list bool)) "truth table stable" tt (truth_table m fg)

(* an entry stored before a collection never hits after it: not after
   the first collection, and not when the cache's epoch field wraps and
   an old epoch comes round again (every 128 collections) *)
let test_collect_invalidates_entries () =
  let m = Helpers.fresh_man ~nvars () in
  let f = majority m in
  M.protect m f;
  let g = O.var_bdd m 3 in
  M.protect m g;
  let fg = O.band m f g in
  M.protect m fg;
  Alcotest.(check int) "stored by band" fg (M.cache_find m M.Op.ite f g M.zero);
  for k = 1 to 600 do
    ignore (M.collect m : int);
    if M.cache_find m M.Op.ite f g M.zero <> -1 then
      Alcotest.failf "an entry stored before collection 1 hits after %d" k
  done;
  Alcotest.(check int) "recomputed" fg (O.band m f g);
  Alcotest.(check int) "stored again" fg (M.cache_find m M.Op.ite f g M.zero)

(* --- [mk]'s insert path under collection pressure ------------------------------ *)

(* pin exactly the kept functions ([root] picks a function out of an
   entry) on the operand stack, whatever it held before: called between
   operations, where dropping every operand pin is sound, each time the
   kept set changes, so the oldest entry can be released first *)
let repin m root kept =
  M.reset_op_stack m;
  Queue.iter (fun k -> M.stack_push m (root k)) kept

(* a random function over [nv] variables, with every intermediate pinned on
   the operand stack so collections inside [mk] are sound; after an
   exception the caller resets the stack *)
let rec pinned_random m rng nv depth =
  if depth = 0 then
    let v = Random.State.int rng nv in
    if Random.State.bool rng then O.var_bdd m v else O.nvar_bdd m v
  else begin
    let a = pinned_random m rng nv (depth - 1) in
    M.stack_push m a;
    let b = pinned_random m rng nv (depth - 1) in
    M.stack_push m b;
    let r =
      match Random.State.int rng 3 with
      | 0 -> O.band m a b
      | 1 -> O.bor m a b
      | _ -> O.bxor m a b
    in
    M.stack_drop m 2;
    r
  end

(* A 16-node store, auto-GC at threshold 0 and a small live-node limit:
   nearly every store-full [mk] collects, and some [mk]s collect at the
   limit and then fail. Each collection runs under a pending insertion,
   which must still land on the unique-table slot its probe found. *)
let test_insert_under_pressure () =
  Helpers.with_obs @@ fun () ->
  let nv = 8 in
  let m = M.create ~initial_capacity:16 () in
  ignore (M.new_vars m nv : int list);
  M.set_auto_gc m true;
  M.set_gc_threshold m 0.0;
  M.set_node_limit m (Some 300);
  let rng = Random.State.make [| 11 |] in
  let envs = Helpers.all_envs ~nvars:nv () in
  let tt f = List.map (O.eval m f) envs in
  (* pinned roots, each with its truth table *)
  let kept = Queue.create () in
  let repin () = repin m fst kept in
  let release_oldest () =
    ignore (Queue.pop kept : int * bool list);
    repin ()
  in
  let recounts = ref 0 and limit_hits = ref 0 in
  (* a misplaced insertion is healed by the next table rebuild, so
     canonicity is probed after every step *)
  let check_canonical what =
    let live = Hashtbl.create 256 in
    Queue.iter
      (fun (f, _) -> Hashtbl.iter (Hashtbl.replace live) (reachable m f))
      kept;
    Hashtbl.iter
      (fun id () ->
        if M.mk m (M.var m id) (M.low m id) (M.high m id) <> id then
          Alcotest.failf "%s: a second mk of node %d's triple missed it" what
            id)
      live;
    live
  in
  let check_consistent what =
    incr recounts;
    let live = check_canonical what in
    Queue.iter
      (fun (f, t) ->
        Alcotest.(check (list bool)) (what ^ ": function unchanged") t (tt f))
      kept;
    ignore (M.collect m : int);
    Alcotest.(check int) (what ^ ": live count = recount from the roots")
      (2 + Hashtbl.length live) (M.live_nodes m)
  in
  for step = 1 to 400 do
    match pinned_random m rng nv 4 with
    | f ->
      Queue.add (f, tt f) kept;
      repin ();
      if Queue.length kept > 12 then release_oldest ();
      let what = Printf.sprintf "step %d" step in
      if step mod 50 = 0 then check_consistent what
      else ignore (check_canonical what : (int, unit) Hashtbl.t)
    | exception M.Node_limit_exceeded ->
      incr limit_hits;
      (* drops the pins the failed construction left, and pins the kept
         functions again *)
      repin ();
      check_consistent (Printf.sprintf "limit hit at step %d" step);
      (* make room: drop the older half of the kept functions *)
      for _ = 1 to Queue.length kept / 2 do
        release_oldest ()
      done
  done;
  Alcotest.(check bool) "the node limit was hit" true (!limit_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "collections inside mk (%d runs, %d explicit)"
       (Helpers.gc_runs ()) !recounts)
    true
    (Helpers.gc_runs () > 2 * !recounts)

(* Random operations on a 16-slot store that collects at nearly every
   store-full [mk] (threshold 0), so swept ids are reused and the unique
   table fills with stale entries. Afterwards every live node is found
   under its own triple and no two live nodes share one; then one [mk] at
   a time over two same-size rebuilds (purges): the first must leave
   exactly the resident decision nodes in the table. That shows in when
   the second comes: a fresh node takes one more slot, a collection frees
   none, and a purge runs on the insertion that fills more than 3/4 of
   the slots. So after a purge that left [n] entries in [size] slots, the
   next purge comes on fresh node [3 * size / 4 + 1 - n], unless the
   table grows first (a growth rebuilds it too). The table's size is the
   [bdd.mem.unique_bytes] gauge over 4 bytes a slot; the table never
   shrinks, so the gauge, a maximum since the manager was made, is its
   current size. *)
let prop_unique_table_under_reuse =
  QCheck.Test.make ~count:50 ~name:"unique table under collections and id reuse"
    QCheck.small_nat (fun seed ->
      Helpers.with_obs @@ fun () ->
      let nv = 8 in
      let m = M.create ~initial_capacity:16 () in
      ignore (M.new_vars m nv : int list);
      M.set_auto_gc m true;
      M.set_gc_threshold m 0.0;
      let rng = Random.State.make [| seed |] in
      let kept = Queue.create () in
      for _ = 1 to 40 do
        let f = pinned_random m rng nv 3 in
        Queue.add f kept;
        if Queue.length kept > 6 then ignore (Queue.pop kept : int);
        repin m Fun.id kept
      done;
      ignore (M.collect m : int);
      let live = Hashtbl.create 256 in
      Queue.iter
        (fun f -> Hashtbl.iter (Hashtbl.replace live) (reachable m f))
        kept;
      let triples = Hashtbl.create 256 in
      let canonical =
        Hashtbl.fold
          (fun id () ok ->
            let v = M.var m id and lo = M.low m id and hi = M.high m id in
            let fresh = not (Hashtbl.mem triples (v, lo, hi)) in
            Hashtbl.replace triples (v, lo, hi) ();
            ok && fresh && M.mk m v lo hi = id)
          live true
      in
      let purges () = Obs.Counter.find "bdd.unique.purges" in
      let growths () = Obs.Counter.find "bdd.unique.rehashes" in
      let created () = Obs.Counter.find "bdd.nodes_created" in
      let slots () = Obs.Gauge.find "bdd.mem.unique_bytes" / 4 in
      (* after a purge: the nodes created so far, and the fresh node that
         must bring the next purge *)
      let since = ref None and verdict = ref None and i = ref 0 in
      while !verdict = None && !i < 20_000 do
        (* a fresh minterm chain, one [mk] at a time *)
        let f = ref M.one in
        for v = nv - 1 downto 0 do
          let p = purges () and g = growths () in
          f :=
            if (!i lsr v) land 1 = 1 then M.mk m v M.zero !f
            else M.mk m v !f M.zero;
          if !verdict = None then
            if growths () > g then since := None
            else if purges () > p then begin
              (match !since with
               | Some (c0, due) -> verdict := Some (created () - c0 = due)
               | None -> ());
              since :=
                Some (created (), (3 * slots () / 4) + 1 - (M.live_nodes m - 2))
            end
        done;
        incr i
      done;
      match !verdict with None -> false | Some on_time -> canonical && on_time)

(* Random [mk]/[collect] rounds on a store that starts at 16 slots: the
   kept set grows round by round, so the unique table doubles, and the
   collections leave stale entries behind, so it purges. After every
   round each live node, looked up again under its own triple, must come
   back to the same id; with hundreds of ids in the table, the probes
   cross both slots of its packed words. *)
let prop_unique_slots_under_growth =
  QCheck.Test.make ~count:30 ~name:"unique slots under purges and growths"
    QCheck.small_nat (fun seed ->
      let nv = 10 in
      let m = M.create ~initial_capacity:16 () in
      ignore (M.new_vars m nv : int list);
      M.set_auto_gc m true;
      M.set_gc_threshold m 0.0;
      let rng = Random.State.make [| seed |] in
      Obs.set_enabled true;
      Obs.reset ();
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
      let kept = Queue.create () in
      let same_ids () =
        let live = Hashtbl.create 256 in
        Queue.iter
          (fun f -> Hashtbl.iter (Hashtbl.replace live) (reachable m f))
          kept;
        Hashtbl.fold
          (fun id () ok ->
            ok && M.mk m (M.var m id) (M.low m id) (M.high m id) = id)
          live true
      in
      let ok = ref true in
      for round = 1 to 30 do
        for _ = 1 to 4 do
          let f = pinned_random m rng nv 4 in
          Queue.add f kept;
          repin m Fun.id kept
        done;
        if Queue.length kept > 2 * round then begin
          ignore (Queue.pop kept : int);
          repin m Fun.id kept
        end;
        if round mod 3 = 0 then ignore (M.collect m : int);
        ok := !ok && same_ids ()
      done;
      !ok
      && Obs.Counter.find "bdd.unique.purges" > 0
      && Obs.Counter.find "bdd.unique.rehashes" > 0)

(* The unique table doubles when the live count passes half its slots,
   not when it reaches half: a 1024-node store starts with 2048 slots
   (4 bytes each) and keeps them at exactly 1024 live nodes. *)
let test_unique_half_load () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let m = M.create ~initial_capacity:1024 () in
  let unique_bytes () = Obs.Gauge.find "bdd.mem.unique_bytes" in
  Alcotest.(check int) "2048 slots of 4 bytes" (2048 * 4) (unique_bytes ());
  let vs = M.new_vars m 1022 in
  List.iter (fun v -> ignore (M.mk m v M.zero M.one : int)) vs;
  Alcotest.(check int) "half the slots live" 1024 (M.live_nodes m);
  Alcotest.(check int) "not doubled at half" (2048 * 4) (unique_bytes ());
  ignore (M.mk m 0 M.one M.zero : int);
  Alcotest.(check int) "doubled past half" (4096 * 4) (unique_bytes ())

(* --- observability ------------------------------------------------------------ *)

let test_gc_counters () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let m = tiny_man () in
  M.set_gc_threshold m 0.0;
  let f = majority m in
  M.protect m f;
  make_garbage m 300;
  ignore (M.collect m : int);
  Alcotest.(check bool) "bdd.gc.runs advanced" true
    (Obs.Counter.find "bdd.gc.runs" > 0);
  Alcotest.(check bool) "bdd.gc.nodes_swept advanced" true
    (Obs.Counter.find "bdd.gc.nodes_swept" > 0);
  Alcotest.(check bool) "bdd.gc.live_after advanced" true
    (Obs.Counter.find "bdd.gc.live_after" > 0);
  Alcotest.(check int) "bdd.live_nodes tracks the manager"
    (M.live_nodes m)
    (Obs.Gauge.find "bdd.live_nodes");
  (* the derived dead ratio is computable and sane *)
  let swept = Obs.Counter.find "bdd.gc.nodes_swept" in
  let created = Obs.Counter.find "bdd.nodes_created" in
  Alcotest.(check bool) "swept bounded by created" true (swept <= created)

(* --- variable-table growth ----------------------------------------------------- *)

let test_new_var_10k_fast () =
  let m = M.create () in
  let t0 = Sys.time () in
  for _ = 1 to 10_000 do
    ignore (M.new_var m : int)
  done;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "all registered" 10_000 (M.num_vars m);
  Alcotest.(check bool)
    (Printf.sprintf "10k variables in %.3fs (< 1s)" elapsed)
    true (elapsed < 1.0);
  (* the registered variables are usable and correctly named *)
  ignore (O.var_bdd m 9_999 : int);
  let named = M.create () in
  ignore (M.new_vars named 5_000 : int list);
  let v = M.new_var ~name:"tail" named in
  Alcotest.(check string) "names survive the geometric growth" "tail"
    (M.var_name named v)

let () =
  Alcotest.run "gc"
    [ ( "sweep",
        [ Alcotest.test_case "sweep, pin and reuse" `Quick test_sweep_and_reuse;
          Alcotest.test_case "unique table rebuilt canonically" `Quick
            test_rebuilt_unique_table_canonical;
          Alcotest.test_case "stale unique entry never answers" `Quick
            test_stale_entry_never_answers;
          Alcotest.test_case "collect rejected while frozen" `Quick
            test_collect_inside_frozen_rejected;
          Alcotest.test_case "freezing defers auto-GC" `Quick
            test_frozen_defers_auto_gc ] );
      ( "pins",
        [ Alcotest.test_case "protect pins for good" `Quick
            test_protect_for_good;
          Alcotest.test_case "root sets are scoped" `Quick
            test_roots_set_scoped;
          Alcotest.test_case "auto-GC respects pins" `Quick
            test_auto_gc_respects_pins;
          Alcotest.test_case "loops leave only the caller's pins" `Quick
            test_loops_leave_only_caller_pins;
          Alcotest.test_case "root set released when the body raises" `Quick
            test_roots_released_on_raise ] );
      ( "limits",
        [ Alcotest.test_case "node limit bounds live nodes" `Quick
            test_node_limit_is_live_count;
          Alcotest.test_case "gc off grows only" `Quick test_gc_off_grows_only;
          Alcotest.test_case "insert under collection pressure" `Quick
            test_insert_under_pressure;
          QCheck_alcotest.to_alcotest prop_unique_table_under_reuse;
          QCheck_alcotest.to_alcotest prop_unique_slots_under_growth;
          Alcotest.test_case "unique table kept at half load" `Quick
            test_unique_half_load ]
      );
      ( "caches",
        [ Alcotest.test_case "clear_caches/GC interleaving" `Quick
            test_clear_caches_gc_interleaving;
          Alcotest.test_case "collect invalidates earlier entries" `Quick
            test_collect_invalidates_entries ] );
      ( "obs",
        [ Alcotest.test_case "gc counters and gauges" `Quick test_gc_counters ]
      );
      ( "vars",
        [ Alcotest.test_case "10k new_var under a second" `Quick
            test_new_var_10k_fast ] ) ]
