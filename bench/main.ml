(* Micro-benchmarks and ablations.

   Table 1, the paper's only results table, is `lesolve table1` (one
   process, every row verified; `--json` writes BENCH_table1.json). This
   executable times the rest of the paper's experimental content:

   - FIGURE 3 (the worked example): a Bechamel micro-benchmark of deriving
     and completing the example automaton (the printable reproduction
     itself lives in examples/quickstart.ml).

   - The small Table-1 rows (t510, t208, t298) under Bechamel's
     statistical timing, both flows.

   - Ablations for the design choices the paper calls out (DESIGN.md §5):
     early-quantification scheduling, worklist vs sweep CSF extraction,
     deferred completion (Theorem 1), the u/v-to-latch affinity, the GC
     dead-ratio threshold and the cs/ns variable interleaving. (The
     partition-clustering threshold sweep that fixed the solver's 500-node
     constant is recorded in EXPERIMENTS.md.)

   Usage:  dune exec bench/main.exe [-- --csf-rows]
     --csf-rows    per-row worklist-vs-sweep CSF extraction timings only *)

open Bechamel

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]

let instance = Toolkit.Instance.monotonic_clock

let run_group ?(quota = 2.0) name tests =
  let cfg =
    Benchmark.cfg ~limit:30 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun case ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> e
          | Some _ | None -> nan
        in
        (case, est) :: acc)
      results []
  in
  Printf.printf "\n== %s ==\n" name;
  List.iter
    (fun (case, ns) ->
      if ns < 1_000.0 then Printf.printf "  %-52s %10.0f ns/run\n" case ns
      else if ns < 1_000_000.0 then
        Printf.printf "  %-52s %10.2f us/run\n" case (ns /. 1e3)
      else if ns < 1_000_000_000.0 then
        Printf.printf "  %-52s %10.2f ms/run\n" case (ns /. 1e6)
      else Printf.printf "  %-52s %10.2f s/run\n" case (ns /. 1e9))
    (List.sort compare rows);
  flush stdout

(* --- Figure 3 micro-benchmark ------------------------------------------------ *)

let fig3_circuit () =
  let module N = Network.Netlist in
  let module E = Network.Expr in
  let b = N.create "fig3" in
  let i = N.add_input b "i" in
  let cs1 = N.add_latch b ~name:"cs1" ~init:false () in
  let cs2 = N.add_latch b ~name:"cs2" ~init:false () in
  let t1 = N.add_node b ~name:"T1" (E.And (E.Var 0, E.Var 1)) [| i; cs2 |] in
  let t2 =
    N.add_node b ~name:"T2" (E.Or (E.Not (E.Var 0), E.Var 1)) [| i; cs1 |]
  in
  N.set_latch_input b cs1 t1;
  N.set_latch_input b cs2 t2;
  let o = N.add_node b ~name:"o" (E.Xor (E.Var 0, E.Var 1)) [| cs1; cs2 |] in
  N.add_output b "o" o;
  N.freeze b

let fig3_bench () =
  let net = fig3_circuit () in
  run_group "figure 3: example automaton derivation"
    [ Test.make ~name:"derive + complete automaton"
        (Staged.stage (fun () ->
             let man = Bdd.Manager.create () in
             let iv = [ Bdd.Manager.new_var ~name:"i" man ] in
             let ov = [ Bdd.Manager.new_var ~name:"o" man ] in
             Fsa.Ops.complete
               (Fsa.From_network.of_netlist man ~input_vars:iv ~output_vars:ov
                  net)));
      Test.make ~name:"partitioned {T_k},{O_j} extraction"
        (Staged.stage (fun () ->
             Network.Symbolic.of_netlist (Bdd.Manager.create ()) net)) ]

(* --- Table 1 micro rows (Bechamel timing of the small instances) ------------- *)

let solve_bench () =
  let mk row_name method_ () =
    let row = Circuits.Suite.find row_name in
    match
      Equation.Solve.solve_split ~time_limit:60.0 ~method_
        row.Circuits.Suite.net ~x_latches:row.Circuits.Suite.x_latches
    with
    | Equation.Solve.Completed _ -> ()
    | Equation.Solve.Could_not_complete _ -> failwith "unexpected CNC"
  in
  run_group "table 1 (small rows, statistical timing)"
    [ Test.make ~name:"t510 partitioned"
        (Staged.stage (mk "t510" Equation.Solve.default_partitioned));
      Test.make ~name:"t510 monolithic"
        (Staged.stage (mk "t510" Equation.Solve.Monolithic));
      Test.make ~name:"t208 partitioned"
        (Staged.stage (mk "t208" Equation.Solve.default_partitioned));
      Test.make ~name:"t208 monolithic"
        (Staged.stage (mk "t208" Equation.Solve.Monolithic));
      Test.make ~name:"t298 partitioned"
        (Staged.stage (mk "t298" Equation.Solve.default_partitioned));
      Test.make ~name:"t298 monolithic"
        (Staged.stage (mk "t298" Equation.Solve.Monolithic)) ]

(* --- ablations ---------------------------------------------------------------- *)

(* Reachable states of [sym] with the forward step built from
   [conjoin_exists man rels ~quantify] (the state set first in [rels]), so
   the reachability ablations can contrast the monolithic relation with
   the partitioned schedules. *)
let reach_by conjoin_exists (sym : Network.Symbolic.t) =
  let module M = Bdd.Manager in
  let module S = Network.Symbolic in
  let man = sym.S.man in
  M.with_roots man @@ fun rs ->
  let parts =
    List.map (M.Roots.add rs)
      (Img.Partition.of_functions man (S.transition_parts sym))
  in
  let quantify = sym.S.input_vars @ sym.S.state_vars in
  let image frontier =
    let img = conjoin_exists man (frontier :: parts) ~quantify in
    M.stack_push man img;
    let renamed = Bdd.Ops.rename man img (S.ns_to_cs sym) in
    M.stack_drop man 1;
    renamed
  in
  ignore (Img.Reach.fixpoint man ~image sym.S.init_cube : Img.Reach.outcome)

let ablation_quantification () =
  (* early quantification on reachability images (paper §1: the machinery
     language-equation solving inherits) *)
  let net =
    Circuits.Generators.random_logic ~seed:4 ~inputs:8 ~outputs:4 ~latches:18
      ~levels:4 ()
  in
  let bench conjoin_exists () =
    let man = Bdd.Manager.create () in
    reach_by conjoin_exists (Network.Symbolic.of_netlist man net)
  in
  let partitioned order man rels ~quantify =
    Img.Quantify.and_exists_list man ~order rels ~quantify
  in
  run_group ~quota:15.0 "ablation: quantification scheduling (reachability)"
    [ Test.make ~name:"monolithic relation"
        (Staged.stage (bench Reference.Quantify.monolithic_and_exists));
      Test.make ~name:"partitioned, declaration order"
        (Staged.stage (bench (partitioned Img.Quantify.Given)));
      Test.make ~name:"partitioned, greedy schedule"
        (Staged.stage (bench (partitioned Img.Quantify.Greedy))) ]

let ablation_csf () =
  (* worklist vs iterated-sweep CSF extraction: the subset construction
     runs once outside the timed region, so the group times only the
     extraction itself (the two are language-equivalent; the differential
     suite proves it) *)
  let row = Circuits.Suite.find "t298" in
  let _, p =
    Equation.Split.problem row.Circuits.Suite.net
      ~x_latches:row.Circuits.Suite.x_latches
  in
  let x, _ = Equation.Partitioned.solve_arena p in
  run_group "ablation: CSF extraction, worklist vs sweeps (t298)"
    [ Test.make ~name:"worklist on the solution automaton"
        (Staged.stage (fun () ->
             ignore (Equation.Csf.of_arena p x : Fsa.Automaton.t * int)));
      Test.make ~name:"iterated full sweeps (reference)"
        (Staged.stage (fun () ->
             ignore (Reference.Csf.csf_sweep p x : Fsa.Automaton.t))) ]

(* Per-row companion to the t298 ablation above: every Table-1 row's
   partitioned solution, worklist vs sweeps, CPU-timed with adaptive
   repetition. The paper's rows differ wildly in CSF shape (t298 deletes
   80 of 129 states, t444 deletes none of 980), so one row is not
   representative. *)
let csf_rows () =
  let time_cpu f =
    let reps = ref 1 in
    let rec go () =
      let t0 = Sys.time () in
      for _ = 1 to !reps do
        f ()
      done;
      let dt = Sys.time () -. t0 in
      if dt >= 0.2 || !reps >= 65536 then dt /. float_of_int !reps
      else begin
        reps := !reps * 4;
        go ()
      end
    in
    go ()
  in
  Printf.printf
    "\n== CSF extraction per Table-1 row (partitioned solution) ==\n";
  Printf.printf "  %-6s %9s %9s %9s %11s\n" "row" "states" "deleted"
    "worklist" "sweeps";
  List.iter
    (fun row ->
      let _, p =
        Equation.Split.problem row.Circuits.Suite.net
          ~x_latches:row.Circuits.Suite.x_latches
      in
      let x, _ = Equation.Partitioned.solve_arena p in
      let _, deletions = Equation.Csf.of_arena p x in
      let wl =
        time_cpu (fun () ->
            ignore (Equation.Csf.of_arena p x : Fsa.Automaton.t * int))
      in
      let sw =
        time_cpu (fun () ->
            ignore (Reference.Csf.csf_sweep p x : Fsa.Automaton.t))
      in
      Printf.printf "  %-6s %9d %9d %7.1fus %9.1fus\n"
        row.Circuits.Suite.name
        (Fsa.Automaton.num_states x)
        deletions (wl *. 1e6) (sw *. 1e6);
      flush stdout)
    (Circuits.Suite.table1 ())

let ablation_completion () =
  (* Theorem 1 / Corollary 1: deferring the completion of F *)
  let net = Circuits.Generators.counter 3 in
  let bench complete_f () =
    let _, p = Equation.Split.problem net ~x_latches:[ "c1"; "c2" ] in
    ignore (Reference.Generic.solve ~complete_f p : Fsa.Automaton.t)
  in
  run_group "ablation: eager vs deferred completion of F (Theorem 1)"
    [ Test.make ~name:"eager (Complete(F) before product)"
        (Staged.stage (bench true));
      Test.make ~name:"deferred (F left incomplete)"
        (Staged.stage (bench false)) ]

let ablation_affinity () =
  (* the alphabet-affinity allocation (Problem.make's [affinities]): placing
     u.ℓ/v.ℓ next to latch ℓ's state variables. Without it, P_ζ(u,v,ns)
     correlates variables across the whole order and blows up exponentially
     in the number of split latches. Run on a scaled-down t298 with a tight
     node budget so the "without" case fails fast. *)
  let row = Circuits.Suite.find "t298" in
  let solve_with_affinity affinity () =
    let sp = Equation.Split.split row.Circuits.Suite.net
        ~x_latches:row.Circuits.Suite.x_latches in
    let affinities =
      if affinity then
        List.map2
          (fun (v, u) l -> (v, u, l))
          (List.combine sp.Equation.Split.v_names sp.Equation.Split.u_names)
          sp.Equation.Split.x_latch_names
      else []
    in
    let p =
      Equation.Problem.make ~affinities ~f:sp.Equation.Split.f
        ~s:row.Circuits.Suite.net ~u_names:sp.Equation.Split.u_names
        ~v_names:sp.Equation.Split.v_names ()
    in
    Bdd.Manager.set_node_limit p.Equation.Problem.man (Some 3_000_000);
    try ignore (Equation.Partitioned.solve_arena p)
    with Bdd.Manager.Node_limit_exceeded -> ()
  in
  run_group ~quota:10.0
    "ablation: u/v-to-latch affinity in the variable order (t298, 3M-node cap)"
    [ Test.make ~name:"with affinity (default)"
        (Staged.stage (solve_with_affinity true));
      Test.make ~name:"without affinity (u,v at the top; capped blow-up)"
        (Staged.stage (solve_with_affinity false)) ]

let ablation_gc_threshold () =
  (* the dead-ratio trigger of the mark-and-sweep collector: below the
     threshold a full node store grows, at or above it the manager collects
     in place. 0.0 collects on every full store (maximum sweeping, maximum
     mark cost), 1.0 effectively never collects (grow-only, like a manager
     with automatic collection off).
     A tight node budget makes the collector load-bearing: runs that cannot
     reclaim enough dead nodes hit the live-node limit and fail over to the
     degradation ladder. *)
  let row = Circuits.Suite.find "t298" in
  let solve gc threshold () =
    let _, p =
      Equation.Split.problem row.Circuits.Suite.net
        ~x_latches:row.Circuits.Suite.x_latches
    in
    let man = p.Equation.Problem.man in
    Bdd.Manager.set_auto_gc man gc;
    Bdd.Manager.set_gc_threshold man threshold;
    Bdd.Manager.set_node_limit man (Some 200_000);
    try ignore (Equation.Partitioned.solve_arena p)
    with Bdd.Manager.Node_limit_exceeded -> ()
  in
  run_group ~quota:10.0
    "ablation: GC dead-ratio threshold (t298, 200k live-node cap)"
    [ Test.make ~name:"gc off (grow-only)" (Staged.stage (solve false 0.25));
      Test.make ~name:"threshold 0.05" (Staged.stage (solve true 0.05));
      Test.make ~name:"threshold 0.25 (default)"
        (Staged.stage (solve true 0.25));
      Test.make ~name:"threshold 0.50" (Staged.stage (solve true 0.50));
      Test.make ~name:"threshold 0.90" (Staged.stage (solve true 0.90)) ]

let ablation_order () =
  (* with the monolithic image the transition-relation BDD is actually
     built, so the variable order's effect is direct: interleaved cs/ns
     keeps the shift-register relation linear, blocked makes it
     exponential in the register length *)
  let net = Circuits.Generators.shift_register 16 in
  let bench interleave () =
    let man = Bdd.Manager.create () in
    let sym =
      if interleave then Network.Symbolic.of_netlist man net
      else begin
        let vars suffix ids =
          List.map
            (fun id ->
              Bdd.Manager.new_var ~name:(Network.Netlist.net_name net id ^ suffix)
                man)
            ids
        in
        let input_vars = vars "" net.Network.Netlist.inputs in
        let state_vars = vars "" net.Network.Netlist.latches in
        let next_state_vars = vars "'" net.Network.Netlist.latches in
        Network.Symbolic.build man ~input_vars ~state_vars ~next_state_vars net
      end
    in
    reach_by Reference.Quantify.monolithic_and_exists sym
  in
  run_group ~quota:10.0
    "ablation: cs/ns variable interleaving (monolithic relation, shift16)"
    [ Test.make ~name:"interleaved (cs,ns adjacent)" (Staged.stage (bench true));
      Test.make ~name:"blocked (all cs, then all ns)"
        (Staged.stage (bench false)) ]

let () =
  if List.mem "--csf-rows" (Array.to_list Sys.argv) then csf_rows ()
  else begin
    fig3_bench ();
    solve_bench ();
    ablation_quantification ();
    ablation_csf ();
    ablation_completion ();
    ablation_affinity ();
    ablation_gc_threshold ();
    ablation_order ()
  end
