module M = Bdd.Manager

type method_ = Partitioned | Monolithic

let default_partitioned = Partitioned

let method_label = function
  | Partitioned -> "partitioned/greedy"
  | Monolithic -> "monolithic"

type attempt = {
  label : string;
  kernel : string;
  phase : Runtime.phase;
  subset_states : int;
  peak_nodes : int;
  cpu_seconds : float;
  failure : string;
}

type skip_reason = Same_live_set | Same_build

let describe_skip = function
  | Same_live_set -> "live set filled the budget after a collection"
  | Same_build -> "would rebuild the problem under the same limit"

type report = {
  solved_by : string;
  problem : Problem.t;
  split : Split.t;
  csf : Fsa.Automaton.t;
  csf_states : int;
  csf_deletions : int;
  subset_states : int;
  cpu_seconds : float;
  peak_nodes : int;
  attempts : attempt list;
  skipped : (string * skip_reason) list;
}

type outcome =
  | Completed of report
  | Could_not_complete of {
      cpu_seconds : float;
      reason : string;
      attempts : attempt list;
      skipped : (string * skip_reason) list;
    }

(* The rungs of the degradation ladder. [First] builds the problem in a
   fresh manager and runs the paper's configuration: greedy early
   quantification over the affinity-clustered partition. [Gc_retry]
   collects garbage on the failed attempt's manager and retries the same
   configuration in place (the failed attempt released its construction
   roots, so a blow-up dominated by dead intermediates fits after a
   sweep). [Reorder_retry] migrates the failed attempt's problem into a
   FORCE-reordered fresh manager and retries it. [Given] rebuilds from
   scratch and runs the unclustered partition with the given quantification
   order: a different kernel, not a cheaper one, and in the budget sweep of
   EXPERIMENTS.md the only rescue of t444 at 80k nodes. [Mono] is the one
   attempt of a [Monolithic] request. *)
type rung = First | Gc_retry | Reorder_retry | Given | Mono

let rung_label = function
  | First -> method_label Partitioned
  | Gc_retry -> "gc-retry"
  | Reorder_retry -> "reorder-retry"
  | Given -> "partitioned/given"
  | Mono -> method_label Monolithic

let given = Img.Image.Partitioned Img.Quantify.Given

(* the image kernel a rung runs: clustering and quantification schedule *)
let rung_kernel = function
  | First | Gc_retry | Reorder_retry ->
    Partitioned.kernel_label (Img.Image.Partitioned Img.Quantify.Greedy)
  | Given -> Partitioned.kernel_label given
  | Mono -> "monolithic-relation"

let ladder = function
  | Monolithic -> [ Mono ]
  | Partitioned ->
    (* collecting is much cheaper than the reorder rebuild: try it first *)
    [ First; Gc_retry; Reorder_retry; Given ]

let solve_split ?node_limit ?time_limit ?fault ~method_ net ~x_latches =
  (match node_limit with
   | Some n when n < 1 ->
     invalid_arg (Printf.sprintf "node limit must be at least 1 (got %d)" n)
   | Some n when n > M.max_nodes ->
     invalid_arg
       (Printf.sprintf "node limit must be at most %d (got %d)"
          M.max_nodes n)
   | Some _ | None -> ());
  (* written so that NaN is rejected too *)
  (match time_limit with
   | Some t when not (t > 0.0) ->
     invalid_arg (Printf.sprintf "time limit must be positive (got %g)" t)
   | Some _ | None -> ());
  let start = Sys.time () in
  let deadline = Option.map (fun limit -> start +. limit) time_limit in
  let rt = Runtime.create ?deadline ?node_limit ?fault () in
  let attempts = ref [] in
  let skipped = ref [] in
  (* the manager of the attempt currently running, for post-mortem stats *)
  let current_man = ref None in
  let last = ref None in
  let fresh () =
    let man = M.create () in
    M.set_auto_gc man true;
    current_man := Some man;
    Runtime.attach rt man;
    Runtime.enter_phase rt Runtime.Build;
    let sp, p = Split.problem ~man net ~x_latches in
    last := Some (sp, p);
    (sp, p)
  in
  (* one attempt = problem setup + solve + CSF extraction; every rung
     routes through the engine ([solve_arena]) and the CSF worklist runs
     on the solution automaton the engine produced *)
  let run_rung rung =
    if !Obs.on then Obs.Trace.point ~detail:(rung_kernel rung) "solve.kernel";
    let sp, p =
      match (rung, !last) with
      | (First | Given | Mono), _ | (Gc_retry | Reorder_retry), None ->
        (* a retry after an attempt that died while still constructing the
           problem has nothing to collect or migrate: it starts afresh.
           Only an injected fault gets here; a death at the node limit
           ends the ladder (see [descend]) *)
        fresh ()
      | Gc_retry, Some (sp, prev) ->
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
        (sp, prev)
      | Reorder_retry, Some (sp, prev) ->
        (* drop the stale operation caches, migrate to a reordered fresh
           manager, and retry with the remaining budget *)
        Runtime.detach rt prev.Problem.man;
        M.clear_caches prev.Problem.man;
        let p = Problem.reorder prev in
        M.set_auto_gc p.Problem.man true;
        last := Some (sp, p);
        current_man := Some p.Problem.man;
        Runtime.attach rt p.Problem.man;
        Runtime.enter_phase rt Runtime.Build;
        (sp, p)
    in
    let x, subset_states =
      match rung with
      | Mono -> Monolithic.solve_arena ~runtime:rt p
      | Given -> Partitioned.solve_arena ~runtime:rt ~strategy:given p
      | First | Gc_retry | Reorder_retry ->
        Partitioned.solve_arena ~runtime:rt p
    in
    (* phase boundary: the subset construction released its roots, so
       everything but the solution's guards and the problem's own functions
       is dead — reclaim it before the CSF phase *)
    ignore (M.collect p.Problem.man : int);
    let csf, csf_deletions = Csf.of_arena ~runtime:rt p x in
    (sp, p, csf, csf_deletions, subset_states)
  in
  let record rung t0 failure =
    let label = rung_label rung in
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
        kernel = rung_kernel rung;
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
    Could_not_complete
      { cpu_seconds = Sys.time () -. start;
        reason;
        attempts = List.rev !attempts;
        skipped = List.rev !skipped }
  in
  let complete label (sp, p, csf, csf_deletions, subset_states) =
    Completed
      { solved_by = label;
        problem = p;
        split = sp;
        csf;
        csf_states = Csf.num_states csf;
        csf_deletions;
        subset_states;
        cpu_seconds = Sys.time () -. start;
        peak_nodes = M.peak_live_nodes p.Problem.man;
        attempts = List.rev !attempts;
        skipped = List.rev !skipped }
  in
  let skip rung why =
    let label = rung_label rung in
    Obs.Trace.point
      ~detail:(Printf.sprintf "%s: %s" label (describe_skip why))
      "solve.rung_skipped";
    skipped := (label, why) :: !skipped
  in
  let rec descend = function
    | [] -> cnc "node limit exceeded"
    | rung :: rest -> (
      let t0 = Sys.time () in
      (* the attempt span is the parent of the Runtime phase spans; exiting
         it (on success or failure) also unwinds any phase span the attempt
         left open *)
      let span = Obs.Span.enter ("attempt." ^ rung_label rung) in
      match run_rung rung with
      | result ->
        Obs.Span.exit span;
        complete (rung_label rung) result
      | exception M.Node_limit_exceeded -> (
        Obs.Span.exit span;
        record rung t0 "node limit exceeded";
        (* skip every rung that would only replay a failure the manager
           proved; an injected fault leaves no reason, so skips nothing *)
        match (Option.bind !current_man M.limit_failure, !last, rest) with
        | Some _, None, _ ->
          (* the attempt died inside [Split.problem]: every later rung
             rebuilds the same problem under the same limit *)
          List.iter (fun r -> skip r Same_build) rest;
          cnc "node limit exceeded"
        | Some M.Live_set, Some _, Gc_retry :: rest ->
          (* gc-retry reruns the same kernel on the same problem and
             manager: the live set that did not fit after a collection is
             made of the same canonical BDDs, whatever the garbage *)
          skip Gc_retry Same_live_set;
          descend rest
        | _ -> descend rest)
      | exception Runtime.Exceeded ->
        (* the deadline is global: once it has passed, a lower rung cannot
           help, so stop the ladder immediately *)
        Obs.Span.exit span;
        record rung t0 "time limit exceeded";
        cnc "time limit exceeded")
  in
  Obs.Span.with_ "solve" (fun () -> descend (ladder method_))

let verify ?runtime r =
  Obs.Span.with_ "verify" (fun () ->
      ( Verify.particular_contained ?runtime r.problem r.split r.csf,
        Verify.composition_equals_spec ?runtime r.problem r.split ))
