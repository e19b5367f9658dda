(* Node-stream golden: the BDD kernel's deterministic work counters for
   Table-1 rows t298, t349, t444 and t526, each solved with the default
   partitioned flow ([Solve.solve_split ~method_:default_partitioned], GC
   on) and Obs on, plus t349 under a 10k live-node budget (the
   ladder-budget case that fails first try and completes on
   reorder-retry; its row also names the rung that completed, and its
   counts cover every attempt), and t298 under an injected allocation
   fault that fails the first three rungs, so the unclustered
   given-order kernel of the last rung completes (t298@mk:40:3, the
   [LESOLVE_FAULT] syntax).
   t444 and t526 cover the large-store paths: a large computed cache,
   many collections, and wide image accumulators.
   Every count depends only on the sequence of [mk] calls and cache
   probes, so a kernel refactor that keeps this file byte-identical keeps
   the node stream, and with it the rungs the ladder-budget benchmark
   expects. A diff here is a change of the node stream: accept an
   intended one with [dune promote]. *)

let counters =
  [ "bdd.mk_calls"; "bdd.nodes_created"; "bdd.unique.hits"; "bdd.gc.runs";
    "bdd.gc.nodes_swept" ]
  @ List.concat_map
      (fun op -> [ "bdd.cache.lookups." ^ op; "bdd.cache.hits." ^ op ])
      [ "ite"; "not"; "exists"; "and_exists"; "cofactor_cube" ]

type budget = Unbounded | Node_limit of int | Fault_rungs of int

let rows =
  [ ("t298", Unbounded); ("t349", Unbounded); ("t349", Node_limit 10_000);
    ("t298", Fault_rungs 3); ("t444", Unbounded); ("t526", Unbounded) ]

let () =
  List.iter
    (fun (name, budget) ->
      let row = Circuits.Suite.find name in
      let label, node_limit, fault =
        match budget with
        | Unbounded -> (name, None, None)
        | Node_limit n ->
          (Printf.sprintf "%s@%dk" name (n / 1000), Some n, None)
        | Fault_rungs k ->
          ( Printf.sprintf "%s@mk:40:%d" name k,
            None,
            Some (Equation.Runtime.Fault.make ~times:k (Mk_fail 40)) )
      in
      Obs.reset ();
      Obs.set_enabled true;
      let outcome =
        Equation.Solve.solve_split ?node_limit ?fault
          ~method_:Equation.Solve.default_partitioned row.Circuits.Suite.net
          ~x_latches:row.Circuits.Suite.x_latches
      in
      Obs.set_enabled false;
      (match outcome with
       | Equation.Solve.Completed r ->
         if budget <> Unbounded then
           Printf.printf "%s solved_by %s\n" label r.Equation.Solve.solved_by
       | Equation.Solve.Could_not_complete _ ->
         failwith (label ^ ": could not complete"));
      List.iter
        (fun c -> Printf.printf "%s %s %d\n" label c (Obs.Counter.find c))
        counters)
    rows
