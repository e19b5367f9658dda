module M = Bdd.Manager

type method_ = Partitioned of Img.Image.strategy | Monolithic

let greedy = Img.Image.Partitioned Img.Quantify.Greedy
let default_partitioned = Partitioned greedy

let method_label = function
  | Partitioned strategy -> "partitioned/" ^ Img.Image.describe strategy
  | Monolithic -> "monolithic"

(* rung 2 of the ladder: the other early-quantification schedule *)
let alternative_strategy strategy =
  if strategy = greedy then Img.Image.Partitioned Img.Quantify.Given
  else greedy

(* the same rung also flips the kernel between clustered and unclustered:
   a clustering that blew up is replaced by the fully-partitioned kernel,
   and vice versa *)
let alternative_clustering = function
  | Img.Partition.No_clustering -> Partitioned.default_clustering
  | Img.Partition.Affinity _ -> Img.Partition.No_clustering

let kernel_desc method_ clustering =
  match method_ with
  | Monolithic -> "monolithic-relation"
  | Partitioned strategy ->
    Img.Partition.describe_clustering clustering
    ^ "/" ^ Img.Image.describe strategy

type attempt = {
  label : string;
  kernel : string;
  phase : Runtime.phase;
  subset_states : int;
  peak_nodes : int;
  cpu_seconds : float;
  failure : string;
}

type progress = {
  phase_reached : Runtime.phase;
  subset_states_explored : int;
  peak_nodes_seen : int;
  attempts : attempt list;
}

type report = {
  method_ : method_;
  solved_by : string;
  problem : Problem.t;
  split : Split.t;
  solution : Fsa.Automaton.t;
  csf : Fsa.Automaton.t;
  csf_states : int;
  csf_deletions : int;
  subset_states : int;
  cpu_seconds : float;
  peak_nodes : int;
  attempts : attempt list;
}

type outcome =
  | Completed of report
  | Could_not_complete of {
      cpu_seconds : float;
      reason : string;
      progress : progress;
    }

(* One step of the degradation ladder. [Fresh] rebuilds the problem from
   scratch in a new manager; [Gc_retry] collects garbage on the failed
   attempt's manager and retries the same configuration in place (the
   failed attempt released its construction roots, so a blow-up dominated
   by dead intermediates fits after a sweep); [Reorder_retry] migrates the
   previous attempt's problem into a FORCE-reordered fresh manager. Every
   step carries the partition clustering its kernel runs with. *)
type step =
  | Fresh of method_ * Img.Partition.clustering
  | Gc_retry of method_ * Img.Partition.clustering
  | Reorder_retry of Img.Image.strategy * Img.Partition.clustering

let step_label = function
  | Fresh (m, _) -> method_label m
  | Gc_retry _ -> "gc-retry"
  | Reorder_retry _ -> "reorder-retry"

let step_kernel = function
  | Fresh (m, clustering) | Gc_retry (m, clustering) ->
    kernel_desc m clustering
  | Reorder_retry (strategy, clustering) ->
    kernel_desc (Partitioned strategy) clustering

let ladder ~method_ ~clustering ~retries ~fallback ~gc =
  match method_ with
  | Monolithic -> [ Fresh (Monolithic, Img.Partition.No_clustering) ]
  | Partitioned strategy ->
    List.concat
      [ [ Fresh (Partitioned strategy, clustering) ];
        (* collecting is much cheaper than the reorder rebuild: try it
           first when the manager runs with GC enabled *)
        (if gc then [ Gc_retry (Partitioned strategy, clustering) ] else []);
        List.init (max 0 retries) (fun _ ->
            Reorder_retry (strategy, clustering));
        (if fallback then
           [ Fresh
               ( Partitioned (alternative_strategy strategy),
                 alternative_clustering clustering );
             Fresh (Monolithic, Img.Partition.No_clustering) ]
         else []) ]

let solve_split ?node_limit ?time_limit ?(retries = 1) ?(fallback = true)
    ?(clustering = Partitioned.default_clustering) ?fault ?(gc = true)
    ~method_ net ~x_latches =
  let start = Sys.time () in
  let deadline = Option.map (fun limit -> start +. limit) time_limit in
  let fault =
    match fault with Some _ as f -> f | None -> Runtime.Fault.from_env ()
  in
  let rt = Runtime.create ?deadline ?node_limit ?fault () in
  let attempts = ref [] in
  (* the manager of the attempt currently running, for post-mortem stats *)
  let current_man = ref None in
  let last = ref None in
  (* one attempt = problem setup + solve + CSF extraction; every rung
     routes through the engine ([solve_arena]) and the CSF worklist runs
     on the arena the engine produced *)
  let solve_with p clustering = function
    | Partitioned strategy ->
      let arena, stats =
        Partitioned.solve_arena ~runtime:rt ~strategy ~clustering p
      in
      (arena, stats.Partitioned.subset_states)
    | Monolithic ->
      let arena, stats = Monolithic.solve_arena ~runtime:rt p in
      (arena, stats.Monolithic.subset_states)
  in
  let finish (sp, p) method_ clustering =
    let arena, subset_states = solve_with p clustering method_ in
    let solution = Engine.to_automaton arena in
    (* phase boundary: the subset construction released its roots, so
       everything but the arena, the solution automaton and the problem's
       own functions is dead — reclaim it before the CSF phase *)
    if gc then ignore (M.collect p.Problem.man : int);
    let csf, csf_deletions = Csf.of_arena ~runtime:rt p arena in
    (sp, p, solution, csf, csf_deletions, subset_states)
  in
  let rec run_step step =
    Runtime.note_kernel rt (step_kernel step);
    match step with
    | Fresh (m, clustering) ->
      let man = M.create () in
      M.set_auto_gc man gc;
      current_man := Some man;
      Runtime.attach rt man;
      Runtime.enter_phase rt Runtime.Build;
      let sp, p = Split.problem ~man net ~x_latches in
      last := Some (sp, p);
      finish (sp, p) m clustering
    | Gc_retry (m, clustering) when !last = None ->
      (* the failed attempt died while still constructing the problem:
         nothing worth collecting survives, so retry from scratch *)
      run_step (Fresh (m, clustering))
    | Gc_retry (m, clustering) ->
      let sp, prev = Option.get !last in
      (* reclaim every node the failed attempt left dead on the same
         manager before paying for a reorder rebuild; the collection also
         wipes the operation caches *)
      Runtime.detach rt prev.Problem.man;
      (* temporaries the failed attempt left on the operation stack are
         stale: drop them before collecting so they don't keep the failed
         construction alive *)
      M.reset_op_stack prev.Problem.man;
      ignore (M.collect prev.Problem.man : int);
      current_man := Some prev.Problem.man;
      Runtime.attach rt prev.Problem.man;
      Runtime.enter_phase rt Runtime.Build;
      finish (sp, prev) m clustering
    | Reorder_retry (strategy, clustering) when !last = None ->
      (* the failed attempt died while still constructing the problem:
         there is nothing to migrate, so retry from scratch *)
      run_step (Fresh (Partitioned strategy, clustering))
    | Reorder_retry (strategy, clustering) ->
      let sp, prev = Option.get !last in
      (* drop the stale operation caches, migrate to a reordered fresh
         manager, and retry the partitioned strategy with the remaining
         budget *)
      Runtime.detach rt prev.Problem.man;
      M.clear_caches prev.Problem.man;
      let p = Problem.reorder prev in
      M.set_auto_gc p.Problem.man gc;
      last := Some (sp, p);
      current_man := Some p.Problem.man;
      Runtime.attach rt p.Problem.man;
      Runtime.enter_phase rt Runtime.Build;
      finish (sp, p) (Partitioned strategy) clustering
  in
  let record label t0 failure =
    (* flush partial stats of the failed attempt into the trace, so a
       Could_not_complete snapshot still shows where each rung died *)
    Obs.Trace.point
      ~detail:
        (Printf.sprintf "%s: %s (phase %s, %d subset states)" label failure
           (Runtime.phase_name (Runtime.phase rt))
           (Runtime.subset_states rt))
      "solve.attempt_failed";
    attempts :=
      { label;
        kernel = Runtime.kernel rt;
        phase = Runtime.phase rt;
        subset_states = Runtime.subset_states rt;
        peak_nodes =
          (match !current_man with
           | Some m -> M.peak_live_nodes m
           | None -> 0);
        cpu_seconds = Sys.time () -. t0;
        failure }
      :: !attempts
  in
  let cnc reason =
    let history = List.rev !attempts in
    let phase_reached, subset_states_explored, peak_nodes_seen =
      match !attempts with
      | a :: _ -> (a.phase, a.subset_states, a.peak_nodes)
      | [] -> (Runtime.phase rt, 0, 0)
    in
    Could_not_complete
      { cpu_seconds = Sys.time () -. start;
        reason;
        progress =
          { phase_reached; subset_states_explored; peak_nodes_seen;
            attempts = history } }
  in
  let complete label (sp, p, solution, csf, csf_deletions, subset_states) =
    Completed
      { method_;
        solved_by = label;
        problem = p;
        split = sp;
        solution;
        csf;
        csf_states = Csf.num_states csf;
        csf_deletions;
        subset_states;
        cpu_seconds = Sys.time () -. start;
        peak_nodes = M.peak_live_nodes p.Problem.man;
        attempts = List.rev !attempts }
  in
  let rec descend = function
    | [] -> cnc "node limit exceeded"
    | step :: rest -> (
      let label = step_label step in
      let t0 = Sys.time () in
      (* the attempt span is the parent of the Runtime phase spans; exiting
         it (on success or failure) also unwinds any phase span the attempt
         left open *)
      let span = Obs.Span.enter ("attempt." ^ label) in
      match run_step step with
      | result ->
        Obs.Span.exit span;
        complete label result
      | exception M.Node_limit_exceeded ->
        Obs.Span.exit span;
        record label t0 "node limit exceeded";
        descend rest
      | exception Runtime.Exceeded ->
        (* the deadline is global: once it has passed, a lower rung cannot
           help, so stop the ladder immediately *)
        Obs.Span.exit span;
        record label t0 "time limit exceeded";
        cnc "time limit exceeded")
  in
  Obs.Span.with_ "solve" (fun () ->
      descend (ladder ~method_ ~clustering ~retries ~fallback ~gc))

let verify ?runtime r =
  ( Verify.particular_contained ?runtime r.problem r.split r.csf,
    Verify.composition_equals_spec ?runtime r.problem r.split )
