(* Node-stream goldens: the BDD kernel's deterministic work counters for
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

   The counts go to two files. The allocation file
   ([kernel_alloc.txt]) holds what depends only on the sequence of node
   allocations: nodes created, collections and what they swept and kept,
   allocations inside frozen windows, and the rung that completed. The
   ladder's rungs, and so the cells the ladder-budget benchmark expects,
   follow this file. The probe file ([kernel_probe.txt]) holds the
   lookups that find an existing result: [mk] calls, unique-table hits
   and the computed cache's lookups and hits per op. A change that moves
   only the probe file (a computed cache of another size, say) keeps the
   node stream; one that moves the allocation file moves the rungs.
   Accept an intended diff with [dune promote]. *)

let alloc_counters =
  [ "bdd.nodes_created"; "bdd.gc.runs"; "bdd.gc.nodes_swept";
    "bdd.gc.live_after"; "bdd.frozen.allocs" ]

let probe_counters =
  [ "bdd.mk_calls"; "bdd.unique.hits" ]
  @ List.concat_map
      (fun op -> [ "bdd.cache.lookups." ^ op; "bdd.cache.hits." ^ op ])
      [ "ite"; "not"; "exists"; "and_exists"; "cofactor_cube" ]

type budget = Unbounded | Node_limit of int | Fault_rungs of int

let rows =
  [ ("t298", Unbounded); ("t349", Unbounded); ("t349", Node_limit 10_000);
    ("t298", Fault_rungs 3); ("t444", Unbounded); ("t526", Unbounded) ]

let () =
  let alloc_file, probe_file =
    match Sys.argv with
    | [| _; a; p |] -> (a, p)
    | _ -> failwith "usage: kernel_counters ALLOC_FILE PROBE_FILE"
  in
  let alloc = open_out alloc_file and probe = open_out probe_file in
  List.iter
    (fun (name, budget) ->
      let row = Circuits.Suite.find name in
      let label, node_limit, fault =
        match budget with
        | Unbounded -> (name, None, None)
        | Node_limit n ->
          (Printf.sprintf "%s@%dk" name (n / 1000), Some n, None)
        | Fault_rungs k ->
          let fault = Printf.sprintf "mk:40:%d" k in
          ( Printf.sprintf "%s@%s" name fault,
            None,
            Some (Result.get_ok (Equation.Runtime.Fault.of_string fault)) )
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
           Printf.fprintf alloc "%s solved_by %s\n" label
             r.Equation.Solve.solved_by
       | Equation.Solve.Could_not_complete _ ->
         failwith (label ^ ": could not complete"));
      let print oc =
        List.iter (fun c ->
            Printf.fprintf oc "%s %s %d\n" label c (Obs.Counter.find c))
      in
      print alloc alloc_counters;
      print probe probe_counters)
    rows;
  close_out alloc;
  close_out probe
