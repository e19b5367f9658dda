(* Tests for the solver runtime: phase-scoped budgets, deterministic fault
   injection, and the graceful-degradation ladder in Solve.solve_split.
   Fault injection makes every failure path reachable deterministically —
   each CNC reason, each failure phase, and each rung of the ladder — without
   relying on real blow-ups; one real (fault-free) instance then shows a
   node budget that defeats plain partitioned solving being recovered by
   the ladder. *)

module M = Bdd.Manager
module O = Bdd.Ops
module E = Equation
module R = Equation.Runtime
module F = R.Fault
module G = Circuits.Generators

let expired = Sys.time () -. 1.0

(* --- fault parsing ---------------------------------------------------------- *)

let fault_of s =
  match F.of_string s with
  | Ok f -> f
  | Error e -> Alcotest.failf "%S did not parse: %s" s e

(* where a fault fires: the Nth fresh allocation after [attach] ([mk:N]),
   the Kth image after it ([image:K]), or entering a phase
   ([deadline:PHASE]) *)
type trigger = Alloc of int | Image of int | Enter of R.phase

(* A parsed fault, checked by what it does. Each attempt attaches the
   runtime afresh and runs the events before the trigger, which must not
   raise, then the trigger: it must raise on the first [times] attempts
   and never after. *)
let check_parse s trigger times =
  let rt = R.create ~fault:(fault_of s) () in
  let man = M.create () in
  let alloc () = ignore (O.var_bdd man (M.new_var man) : int) in
  let image () = R.tick_image rt in
  let before, fire =
    match trigger with
    | Alloc n -> (List.init (n - 1) (fun _ -> alloc), alloc)
    | Image k -> (List.init (k - 1) (fun _ -> image), image)
    | Enter ph ->
      ( List.filter_map
          (fun p ->
            if p = ph then None
            else Some (fun () -> R.enter_phase rt p; R.ticker (Some rt) ()))
          R.[ Build; Subset; Csf; Verify ],
        fun () -> R.enter_phase rt ph )
  in
  let attempt () =
    R.attach rt man;
    List.iter (fun event -> event ()) before;
    match fire () with
    | () -> false
    | exception (M.Node_limit_exceeded | R.Exceeded) -> true
  in
  let attempts = times + 2 in
  Alcotest.(check (list bool)) (s ^ ": fires on the first attempts only")
    (List.init attempts (fun k -> k < times))
    (List.init attempts (fun _ -> attempt ()))

let test_fault_parse () =
  check_parse "mk:5000" (Alloc 5000) 1;
  check_parse "image:3:2" (Image 3) 2;
  check_parse "deadline:csf" (Enter R.Csf) 1;
  check_parse "deadline:build:4" (Enter R.Build) 4;
  check_parse "deadline:subset" (Enter R.Subset) 1;
  check_parse "deadline:verify" (Enter R.Verify) 1;
  (* mk:N:T fails exactly T attempts of a solve: counter:3's 40th
     allocation comes on every rung *)
  List.iter
    (fun times ->
      let s = Printf.sprintf "mk:40:%d" times in
      match
        E.Solve.solve_split ~fault:(fault_of s)
          ~method_:E.Solve.default_partitioned (G.counter 3)
          ~x_latches:[ "c1"; "c2" ]
      with
      | E.Solve.Completed r ->
        Alcotest.(check int) (s ^ ": failed attempts") times
          (List.length r.E.Solve.attempts)
      | E.Solve.Could_not_complete { reason; _ } ->
        Alcotest.failf "%s: could not complete (%s)" s reason)
    [ 1; 2; 3 ]

let test_fault_parse_errors () =
  List.iter
    (fun s ->
      match F.of_string s with
      | Ok _ -> Alcotest.failf "%S parsed but should not" s
      | Error _ -> ())
    [ "garbage"; ""; "mk"; "mk:0"; "mk:-3"; "mk:x"; "image:0"; "mk:5:0";
      "deadline:nope"; "deadline"; "mk:1:2:3" ]

(* the parser is the only way to make a fault: every count and index must
   be positive *)
let test_fault_make_validation () =
  List.iter
    (fun s ->
      match F.of_string s with
      | Ok _ -> Alcotest.failf "%S parsed but should not" s
      | Error _ -> ())
    [ "mk:1:0"; "image:1:0"; "deadline:csf:0"; "mk:0"; "image:0"; "mk:-1";
      "image:-2:1"; "deadline:build:-1" ]

(* --- runtime primitives ----------------------------------------------------- *)

let test_mk_fault_fires_once () =
  let rt = R.create ~fault:(fault_of "mk:3") () in
  let man = M.create () in
  R.attach rt man;
  let fired = ref false in
  (try
     for _ = 1 to 10 do
       ignore (O.var_bdd man (M.new_var man) : int)
     done
   with M.Node_limit_exceeded -> fired := true);
  Alcotest.(check bool) "fault fired" true !fired;
  (* a spent fault no longer interferes, not even after a re-attach, which
     would arm a live one again *)
  for _ = 1 to 10 do
    ignore (O.var_bdd man (M.new_var man) : int)
  done;
  R.attach rt man;
  for _ = 1 to 10 do
    ignore (O.var_bdd man (M.new_var man) : int)
  done;
  (* detach lifts the hook and the limit *)
  R.detach rt man;
  ignore (O.var_bdd man (M.new_var man) : int)

let test_deadline_enter_phase () =
  let rt = R.create ~deadline:expired () in
  Alcotest.check_raises "expired deadline" E.Runtime.Exceeded (fun () ->
      R.enter_phase rt R.Build)

let test_deadline_strided_tick () =
  let rt = R.create ~deadline:expired () in
  let tick = R.ticker (Some rt) in
  (* the deadline comparison is strided: a lone tick does not reach it... *)
  tick ();
  (* ...but a loop's worth of ticks must *)
  Alcotest.check_raises "32 ticks" E.Runtime.Exceeded (fun () ->
      for _ = 1 to 32 do
        tick ()
      done)

let test_deadline_fault_fires_once () =
  let rt = R.create ~fault:(fault_of "deadline:subset") () in
  let tick = R.ticker (Some rt) in
  R.enter_phase rt R.Build;
  tick ();
  Alcotest.check_raises "deadline fault" E.Runtime.Exceeded (fun () ->
      R.enter_phase rt R.Subset);
  (* spent: re-entering the phase is now fine *)
  R.enter_phase rt R.Subset;
  tick ()

let test_image_fault () =
  let rt = R.create ~fault:(fault_of "image:2") () in
  let man = M.create () in
  R.attach rt man;
  R.tick_image rt;
  Alcotest.check_raises "second image" M.Node_limit_exceeded (fun () ->
      R.tick_image rt);
  (* the counters are per-attempt: attach resets them *)
  R.attach rt man;
  Alcotest.(check int) "images reset" 0 (R.images rt);
  R.tick_image rt;
  R.tick_image rt

let test_attach_resets_counters () =
  let rt = R.create ~node_limit:1_000_000 () in
  let man = M.create () in
  R.attach rt man;
  R.note_subset_states rt 42;
  R.tick_image rt;
  Alcotest.(check int) "subset states" 42 (R.subset_states rt);
  Alcotest.(check int) "images" 1 (R.images rt);
  R.attach rt man;
  Alcotest.(check int) "subset states reset" 0 (R.subset_states rt);
  Alcotest.(check int) "images reset" 0 (R.images rt)

(* --- budgeted CSF extraction and verification (previously unbounded) -------- *)

let solved_counter3 () =
  match
    E.Solve.solve_split ~method_:E.Solve.default_partitioned (G.counter 3)
      ~x_latches:[ "c1"; "c2" ]
  with
  | E.Solve.Completed r -> r
  | E.Solve.Could_not_complete _ -> Alcotest.fail "counter3 must complete"

let test_csf_budgeted () =
  let _, p = E.Split.problem (G.counter 3) ~x_latches:[ "c1"; "c2" ] in
  let x, _ = E.Partitioned.solve_arena p in
  let rt = R.create ~deadline:expired () in
  Alcotest.check_raises "csf under expired deadline" E.Runtime.Exceeded
    (fun () ->
      ignore (E.Csf.of_arena ~runtime:rt p x : Fsa.Automaton.t * int))

let test_verify_budgeted () =
  let r = solved_counter3 () in
  let rt = R.create ~deadline:expired () in
  Alcotest.check_raises "verify under expired deadline" E.Runtime.Exceeded
    (fun () -> ignore (E.Solve.verify ~runtime:rt r : bool * bool));
  (* the Verify phase is also reachable by fault injection *)
  let rt = R.create ~fault:(fault_of "deadline:verify") () in
  Alcotest.check_raises "verify deadline fault" E.Runtime.Exceeded (fun () ->
      ignore (E.Solve.verify ~runtime:rt r : bool * bool));
  (* and with a fresh budget verification still passes *)
  let rt = R.create ~deadline:(Sys.time () +. 60.0) () in
  let contained, equal = E.Solve.verify ~runtime:rt r in
  Alcotest.(check bool) "contained" true contained;
  Alcotest.(check bool) "equal" true equal

(* --- the degradation ladder, driven by injected faults ----------------------- *)

(* Each rung is reached by a fault's firing count: a fault that fires [n]
   times fails the first [n] rungs. *)
let solve_c3 fault =
  E.Solve.solve_split
    ~fault:(Result.get_ok (F.of_string fault))
    ~method_:E.Solve.default_partitioned (G.counter 3)
    ~x_latches:[ "c1"; "c2" ]

(* the request's partial progress is its final attempt's; every path to a
   CNC records an attempt first, and the CNC's reason is that attempt's
   failure *)
let final attempts = List.hd (List.rev attempts)

let cnc_of = function
  | E.Solve.Could_not_complete { reason; attempts; skipped; _ } ->
    Alcotest.(check bool) "an attempt recorded" true (attempts <> []);
    Alcotest.(check string) "reason is the final attempt's failure"
      (final attempts).E.Solve.failure reason;
    (reason, attempts, skipped)
  | E.Solve.Completed _ -> Alcotest.fail "expected CNC"

let report_of = function
  | E.Solve.Completed r -> r
  | E.Solve.Could_not_complete { reason; _ } ->
    Alcotest.failf "expected completion, got CNC: %s" reason

let labels attempts =
  List.map (fun (a : E.Solve.attempt) -> a.E.Solve.label) attempts

let test_cnc_build_phase () =
  (* the 40th allocation happens while the problem is still being built,
     and four firings outlast every rung *)
  let reason, attempts, _ = cnc_of (solve_c3 "mk:40:4") in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check string) "phase" "build"
    (R.phase_name (final attempts).E.Solve.phase);
  List.iter
    (fun (a : E.Solve.attempt) ->
      Alcotest.(check string) (a.E.Solve.label ^ " phase") "build"
        (R.phase_name a.E.Solve.phase);
      Alcotest.(check string) (a.E.Solve.label ^ " failure")
        "node limit exceeded" a.E.Solve.failure)
    attempts

let test_cnc_subset_phase () =
  (* the first image computation of every rung happens inside the subset
     construction *)
  let reason, attempts, _ = cnc_of (solve_c3 "image:1:4") in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check string) "phase" "subset"
    (R.phase_name (final attempts).E.Solve.phase);
  Alcotest.(check int) "every rung ran" 4 (List.length attempts)

let test_ladder_shape () =
  (* a fault that outlasts every rung walks the whole fixed ladder, with
     each rung's kernel tag *)
  let _, attempts, skipped = cnc_of (solve_c3 "mk:40:4") in
  Alcotest.(check (list string)) "labels"
    [ "partitioned/greedy"; "gc-retry"; "reorder-retry"; "partitioned/given" ]
    (labels attempts);
  Alcotest.(check (list string)) "kernels"
    [ "affinity:500/greedy"; "affinity:500/greedy"; "affinity:500/greedy";
      "unclustered/given" ]
    (List.map (fun (a : E.Solve.attempt) -> a.E.Solve.kernel) attempts);
  (* an injected fault leaves the manager no failure record: no skips *)
  Alcotest.(check int) "nothing skipped" 0 (List.length skipped)

let test_cnc_csf_phase_stops_ladder () =
  (* a deadline failure must stop the ladder: with no time left another
     kernel cannot help *)
  let reason, attempts, _ = cnc_of (solve_c3 "deadline:csf") in
  Alcotest.(check string) "reason" "time limit exceeded" reason;
  Alcotest.(check string) "phase" "csf"
    (R.phase_name (final attempts).E.Solve.phase);
  Alcotest.(check int) "ladder stopped" 1 (List.length attempts);
  Alcotest.(check bool) "partial progress recorded" true
    ((final attempts).E.Solve.subset_states > 0);
  Alcotest.(check bool) "peak nodes recorded" true
    ((final attempts).E.Solve.peak_nodes > 0)

let test_ladder_reorder_retry () =
  (* two firings fail the greedy attempt and its gc-retry; the reordered
     manager completes *)
  let clean = report_of (solve_c3 "mk:1000000") in
  let r = report_of (solve_c3 "mk:400:2") in
  Alcotest.(check string) "solved by" "reorder-retry" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "attempt labels"
    [ "partitioned/greedy"; "gc-retry" ]
    (labels r.E.Solve.attempts);
  Alcotest.(check int) "same CSF" clean.E.Solve.csf_states r.E.Solve.csf_states

let test_ladder_gc_retry () =
  (* with collection enabled the gc-retry rung recovers the mk:400 failure
     in place, before any reorder rebuild *)
  let clean = report_of (solve_c3 "mk:1000000") in
  let r = report_of (solve_c3 "mk:400") in
  Alcotest.(check string) "solved by" "gc-retry" r.E.Solve.solved_by;
  Alcotest.(check int) "one failed attempt" 1 (List.length r.E.Solve.attempts);
  Alcotest.(check int) "same CSF" clean.E.Solve.csf_states r.E.Solve.csf_states

let test_ladder_gc_retry_from_build () =
  (* a failure during problem construction leaves nothing to collect: the
     gc-retry rung rebuilds from scratch but still reports its own label *)
  let r = report_of (solve_c3 "mk:40") in
  Alcotest.(check string) "solved by" "gc-retry" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "attempt labels" [ "partitioned/greedy" ]
    (labels r.E.Solve.attempts)

let test_ladder_alternative_schedule () =
  let clean = report_of (solve_c3 "mk:1000000") in
  let r = report_of (solve_c3 "mk:40:3") in
  Alcotest.(check string) "solved by" "partitioned/given" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "attempt labels"
    [ "partitioned/greedy"; "gc-retry"; "reorder-retry" ]
    (labels r.E.Solve.attempts);
  Alcotest.(check int) "same CSF" clean.E.Solve.csf_states r.E.Solve.csf_states

let test_monolithic_single_attempt () =
  (* a Monolithic request is no rung of the ladder: one attempt *)
  let reason, attempts, _ =
    cnc_of
      (E.Solve.solve_split ~fault:(fault_of "mk:40")
         ~method_:E.Solve.Monolithic (G.counter 3) ~x_latches:[ "c1"; "c2" ])
  in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check int) "one attempt" 1 (List.length attempts)

let test_invalid_budgets () =
  let solve ?node_limit ?time_limit () =
    E.Solve.solve_split ?node_limit ?time_limit
      ~method_:E.Solve.default_partitioned (G.counter 3)
      ~x_latches:[ "c1"; "c2" ]
  in
  let rejects ?node_limit ?time_limit what =
    match solve ?node_limit ?time_limit () with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects ~node_limit:0 "node limit 0";
  rejects ~node_limit:(-5) "node limit -5";
  rejects ~node_limit:(M.max_nodes + 1) "node limit above the store";
  rejects ~time_limit:0.0 "time limit 0";
  rejects ~time_limit:(-1.0) "time limit -1";
  rejects ~time_limit:Float.nan "time limit NaN";
  (* the smallest and largest node budgets are budgets, not usage
     errors *)
  ignore (cnc_of (solve ~node_limit:1 ()));
  ignore (solve ~node_limit:M.max_nodes () : E.Solve.outcome)

(* --- rungs skipped on a failure the manager proved --------------------------- *)

let skipped_labels skipped = List.map fst skipped

let test_skip_after_build_failure () =
  (* counter:3 as [lesolve gen] writes it, split on c1,c2, does not fit 50
     nodes while the problem is still being built: every later rung would
     rebuild it under the same limit, so the ladder ends after one attempt *)
  let net = Network.Blif.parse_string (Network.Blif.to_string (G.counter 3)) in
  let reason, attempts, skipped =
    cnc_of
      (E.Solve.solve_split ~node_limit:50 ~method_:E.Solve.default_partitioned
         net ~x_latches:[ "c1"; "c2" ])
  in
  Alcotest.(check string) "reason" "node limit exceeded" reason;
  Alcotest.(check (list string)) "one attempt" [ "partitioned/greedy" ]
    (labels attempts);
  Alcotest.(check string) "phase" "build"
    (R.phase_name (final attempts).E.Solve.phase);
  Alcotest.(check (list string)) "skipped"
    [ "gc-retry"; "reorder-retry"; "partitioned/given" ]
    (skipped_labels skipped);
  Alcotest.(check bool) "every skip a rebuild" true
    (List.for_all (fun (_, why) -> why = E.Solve.Same_build) skipped)

let solve_row ~node_limit name =
  let row = Circuits.Suite.find name in
  report_of
    (E.Solve.solve_split ~node_limit ~method_:E.Solve.default_partitioned
       row.Circuits.Suite.net ~x_latches:row.Circuits.Suite.x_latches)

let test_live_set_skips_gc_retry () =
  (* t526 at 150k nodes: the first attempt collects at the limit and the
     live set still fills it, so gc-retry, which would rebuild the same
     live set, is skipped *)
  let r = solve_row ~node_limit:150_000 "t526" in
  Alcotest.(check (list string)) "attempts" [ "partitioned/greedy" ]
    (labels r.E.Solve.attempts);
  Alcotest.(check (list string)) "skipped" [ "gc-retry" ]
    (skipped_labels r.E.Solve.skipped);
  Alcotest.(check bool) "because of the live set" true
    (List.for_all (fun (_, why) -> why = E.Solve.Same_live_set)
       r.E.Solve.skipped);
  Alcotest.(check string) "solved by" "reorder-retry" r.E.Solve.solved_by;
  Alcotest.(check int) "CSF states" 34 r.E.Solve.csf_states

let test_gc_retry_still_rescues () =
  (* t444 at 300k nodes: the first failure is not a live-set overflow, and
     gc-retry still completes it *)
  let r = solve_row ~node_limit:300_000 "t444" in
  Alcotest.(check string) "solved by" "gc-retry" r.E.Solve.solved_by;
  Alcotest.(check (list string)) "nothing skipped" []
    (skipped_labels r.E.Solve.skipped);
  Alcotest.(check int) "CSF states" 977 r.E.Solve.csf_states

(* --- a real node budget recovered by the ladder ------------------------------ *)

(* t526 under a 150k-node budget: the node limit bounds live nodes, and
   the ladder completes the solve under the budget with the CSF of an
   unbounded run (the acceptance scenario for the ladder). *)
let test_real_circuit_ladder_recovery () =
  let r = solve_row ~node_limit:150_000 "t526" in
  Alcotest.(check bool) "under budget" true (r.E.Solve.peak_nodes <= 150_000);
  Alcotest.(check int) "CSF states" 34 r.E.Solve.csf_states

let () =
  Alcotest.run "runtime"
    [ ( "fault",
        [ Alcotest.test_case "parse" `Quick test_fault_parse;
          Alcotest.test_case "parse errors" `Quick test_fault_parse_errors;
          Alcotest.test_case "make validation" `Quick
            test_fault_make_validation ] );
      ( "primitives",
        [ Alcotest.test_case "mk fault fires once" `Quick
            test_mk_fault_fires_once;
          Alcotest.test_case "deadline at enter_phase" `Quick
            test_deadline_enter_phase;
          Alcotest.test_case "deadline strided tick" `Quick
            test_deadline_strided_tick;
          Alcotest.test_case "deadline fault fires once" `Quick
            test_deadline_fault_fires_once;
          Alcotest.test_case "image fault" `Quick test_image_fault;
          Alcotest.test_case "attach resets counters" `Quick
            test_attach_resets_counters ] );
      ( "budgets",
        [ Alcotest.test_case "csf budgeted" `Quick test_csf_budgeted;
          Alcotest.test_case "verify budgeted" `Quick test_verify_budgeted ] );
      ( "ladder",
        [ Alcotest.test_case "CNC in build phase" `Quick test_cnc_build_phase;
          Alcotest.test_case "CNC in subset phase" `Quick
            test_cnc_subset_phase;
          Alcotest.test_case "deadline stops ladder (csf phase)" `Quick
            test_cnc_csf_phase_stops_ladder;
          Alcotest.test_case "reorder-retry rung" `Quick
            test_ladder_reorder_retry;
          Alcotest.test_case "gc-retry rung" `Quick test_ladder_gc_retry;
          Alcotest.test_case "gc-retry after build failure" `Quick
            test_ladder_gc_retry_from_build;
          Alcotest.test_case "alternative-schedule rung" `Quick
            test_ladder_alternative_schedule;
          Alcotest.test_case "fault outlasting every rung" `Quick
            test_ladder_shape;
          Alcotest.test_case "monolithic is a single attempt" `Quick
            test_monolithic_single_attempt;
          Alcotest.test_case "invalid budgets rejected" `Quick
            test_invalid_budgets;
          Alcotest.test_case "build failure ends the ladder" `Quick
            test_skip_after_build_failure ] );
      ( "recovery",
        [ Alcotest.test_case "real circuit recovered by ladder" `Slow
            test_real_circuit_ladder_recovery;
          Alcotest.test_case "live-set failure skips gc-retry" `Slow
            test_live_set_skips_gc_retry;
          Alcotest.test_case "gc-retry still rescues t444" `Slow
            test_gc_retry_still_rescues ] ) ]
