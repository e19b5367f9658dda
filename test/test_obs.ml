(* Tests for the observability layer: registry behaviour, the
   enabled/disabled guard, span nesting and unwinding, trace ring-buffer
   bounds, timer accumulation, JSON snapshot validity, and the
   counters produced by real solves (including partial stats flushed on a
   could-not-complete outcome). *)

module E = Equation
module G = Circuits.Generators

(* --- a minimal JSON parser (the emitter is hand-rolled; assert its
   output actually parses, and read snapshots and traces back) -------- *)

module J = Obs.Json

(* [Some v] when [s] is one JSON value; a number with a fraction or an
   exponent is a [Float], any other an [Int] *)
let json_parse s =
  let n = String.length s in
  let pos = ref 0 in
  let exception Bad in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> incr pos; true
    | _ -> false
  in
  let need c = if not (expect c) then raise Bad in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> J.String (string_lit ())
    | Some ('t' | 'f' | 'n') -> keyword ()
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> raise Bad
  and obj () =
    incr pos;
    skip_ws ();
    if expect '}' then J.Obj []
    else
      let rec members acc =
        skip_ws ();
        let key = string_lit () in
        skip_ws ();
        need ':';
        let v = value () in
        skip_ws ();
        if expect ',' then members ((key, v) :: acc)
        else begin
          need '}';
          J.Obj (List.rev ((key, v) :: acc))
        end
      in
      members []
  and arr () =
    incr pos;
    skip_ws ();
    if expect ']' then J.List []
    else
      let rec elems acc =
        let v = value () in
        skip_ws ();
        if expect ',' then elems (v :: acc)
        else begin
          need ']';
          J.List (List.rev (v :: acc))
        end
      in
      elems []
  and string_lit () =
    need '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise Bad
      | Some '"' -> incr pos
      | Some '\\' ->
        incr pos;
        (match peek () with
         | Some ('"' | '\\' | '/' as c) -> Buffer.add_char buf c; incr pos
         | Some 'b' -> Buffer.add_char buf '\b'; incr pos
         | Some 'f' -> Buffer.add_char buf '\012'; incr pos
         | Some 'n' -> Buffer.add_char buf '\n'; incr pos
         | Some 'r' -> Buffer.add_char buf '\r'; incr pos
         | Some 't' -> Buffer.add_char buf '\t'; incr pos
         | Some 'u' ->
           incr pos;
           if !pos + 4 > n then raise Bad;
           (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some c when c < 0x80 -> Buffer.add_char buf (Char.chr c)
            | Some _ -> Buffer.add_char buf '?'
            | None -> raise Bad);
           pos := !pos + 4
         | _ -> raise Bad);
        go ()
      | Some c when Char.code c < 0x20 -> raise Bad
      | Some c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  and keyword () =
    let try_kw kw v =
      let k = String.length kw in
      if !pos + k <= n && String.sub s !pos k = kw then begin
        pos := !pos + k;
        Some v
      end
      else None
    in
    match try_kw "true" (J.Bool true) with
    | Some v -> v
    | None -> (
      match try_kw "false" (J.Bool false) with
      | Some v -> v
      | None -> (
        match try_kw "null" J.Null with Some v -> v | None -> raise Bad))
  and number () =
    let start = !pos in
    let digits () =
      let saw = ref false in
      while match peek () with Some '0' .. '9' -> true | _ -> false do
        incr pos; saw := true
      done;
      if not !saw then raise Bad
    in
    ignore (expect '-');
    digits ();
    let frac = expect '.' in
    if frac then digits ();
    let exp =
      match peek () with
      | Some ('e' | 'E') ->
        incr pos;
        ignore (expect '+' || expect '-');
        digits ();
        true
      | _ -> false
    in
    let text = String.sub s start (!pos - start) in
    if frac || exp then J.Float (float_of_string text)
    else J.Int (int_of_string text)
  in
  match value () with
  | v ->
    skip_ws ();
    if !pos = n then Some v else None
  | exception Bad -> None

let check_json what s =
  Alcotest.(check bool) (what ^ " is valid JSON") true (json_parse s <> None)

(* the member [key] of a JSON object *)
let member key = function
  | J.Obj fields -> (
    match List.assoc_opt key fields with
    | Some v -> v
    | None -> Alcotest.failf "no member %S" key)
  | _ -> Alcotest.failf "not an object where %S was looked up" key

let int_of = function J.Int n -> n | _ -> Alcotest.fail "not an integer"

let parse what s =
  match json_parse s with
  | Some v -> v
  | None -> Alcotest.failf "%s is not valid JSON" what

(* the snapshot, read back *)
let snapshot () = parse "snapshot" (Obs.Stats.snapshot ())

(* the names in one of the snapshot's objects, in order *)
let snapshot_names section =
  match member section (snapshot ()) with
  | J.Obj fields -> List.map fst fields
  | _ -> Alcotest.failf "%s is not an object" section

(* the trace, read back: the retained events as (seq, depth, kind, name),
   and the whole object *)
let trace () = parse "trace" (Obs.Trace.to_json ())

let trace_events () =
  match member "events" (trace ()) with
  | J.List evs ->
    List.map
      (fun e ->
        ( int_of (member "seq" e),
          int_of (member "depth" e),
          (match member "kind" e with J.String k -> k | _ -> "?"),
          match member "name" e with J.String k -> k | _ -> "?" ))
      evs
  | _ -> Alcotest.fail "trace events are not a list"

(* the current span-nesting depth: a point event records it *)
let span_depth () =
  Obs.Trace.point "probe";
  match List.rev (trace_events ()) with
  | (_, depth, "point", "probe") :: _ -> depth
  | _ -> Alcotest.fail "the probe event is not the last one traced"

let with_obs = Helpers.with_obs

let solve_counter () =
  E.Solve.solve_split ~time_limit:60.0 ~method_:E.Solve.default_partitioned
    (G.counter 3) ~x_latches:[ "c1" ]

(* --- registry basics -------------------------------------------------- *)

let test_counters_and_gauges () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.counter" in
      let value () = Obs.Counter.find "test.counter" in
      Alcotest.(check int) "fresh counter" 0 (value ());
      Obs.Counter.bump c;
      Obs.Counter.add c 4;
      Alcotest.(check int) "bump + add" 5 (value ());
      Alcotest.(check int) "unknown name is 0" 0 (Obs.Counter.find "no.such");
      let c' = Obs.Counter.make "test.counter" in
      Obs.Counter.bump c';
      Alcotest.(check int) "make is idempotent" 6 (value ());
      Obs.Counter.bump Obs.Counter.dummy;
      Alcotest.(check bool) "dummy not in snapshot" false
        (List.mem "" (snapshot_names "counters"));
      let g = Obs.Gauge.make "test.gauge" in
      Obs.Gauge.set_max g 10;
      Obs.Gauge.set_max g 3;
      Alcotest.(check int) "set_max keeps high-water mark" 10
        (Obs.Gauge.find "test.gauge");
      Alcotest.(check int) "the snapshot's gauge" 10
        (int_of (member "test.gauge" (member "gauges" (snapshot ()))));
      Obs.reset ();
      Alcotest.(check int) "reset zeroes counters" 0 (value ());
      Alcotest.(check int) "reset zeroes gauges" 0
        (Obs.Gauge.find "test.gauge"))

(* Regression: "subset.states_expanded" and "image.calls" used to be
   registered separately by the partitioned and monolithic flows; the
   engine is now their single registration point, and re-registering the
   same name anywhere must hand back the same counter — a bump through
   one handle is visible through the other. *)
let test_engine_counters_shared () =
  with_obs (fun () ->
      List.iter
        (fun name ->
          let a = Obs.Counter.make name in
          let b = Obs.Counter.make name in
          Obs.Counter.bump a;
          Obs.Counter.bump b;
          Alcotest.(check int) (name ^ ": handles share one value") 2
            (Obs.Counter.find name);
          Alcotest.(check int) (name ^ ": one registry entry") 1
            (List.length
               (List.filter (String.equal name) (snapshot_names "counters"))))
        [ "subset.states_expanded"; "image.calls"; "csf.worklist_deletions" ])

let test_disabled_is_inert () =
  Obs.set_enabled false;
  Obs.reset ();
  (match solve_counter () with
   | E.Solve.Completed _ -> ()
   | E.Solve.Could_not_complete _ -> Alcotest.fail "counter:3 should solve");
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " untouched when disabled") 0
        (Obs.Counter.find name))
    [ "bdd.mk_calls"; "image.calls"; "subset.split_calls"; "csf.passes" ];
  Alcotest.(check int) "no trace events when disabled" 0
    (int_of (member "recorded" (trace ())));
  Alcotest.(check (list string)) "no timers when disabled" []
    (snapshot_names "timers")

(* --- spans, trace, timers --------------------------------------------- *)

let test_span_nesting_and_unwinding () =
  with_obs (fun () ->
      let a = Obs.Span.enter "a" in
      let b = Obs.Span.enter "b" in
      let _c = Obs.Span.enter "c" in
      Alcotest.(check int) "three deep" 3 (span_depth ());
      (* exiting [b] must close the abandoned child [c] first *)
      Obs.Span.exit b;
      Alcotest.(check int) "unwound to a" 1 (span_depth ());
      (* a stale token is a no-op *)
      Obs.Span.exit b;
      Alcotest.(check int) "stale exit ignored" 1 (span_depth ());
      Obs.Span.exit a;
      Alcotest.(check int) "balanced" 0 (span_depth ());
      (* replay the trace: every exit matches the innermost open enter,
         and both events of a span carry the span's nesting level *)
      let stack = ref [] in
      List.iter
        (fun (_, depth, kind, name) ->
          match kind with
          | "enter" ->
            Alcotest.(check int) (name ^ " enter depth") (List.length !stack)
              depth;
            stack := name :: !stack
          | "exit" ->
            (match !stack with
             | top :: rest ->
               Alcotest.(check string) "exit matches innermost enter" top name;
               stack := rest;
               Alcotest.(check int) (name ^ " exit depth") (List.length !stack)
                 depth
             | [] -> Alcotest.fail "exit without open span")
          | _ -> ())
        (trace_events ());
      Alcotest.(check (list string)) "all spans closed" [] !stack;
      (* span exits fed the timers, one entry per name *)
      List.iter
        (fun name ->
          match Obs.Timer.find name with
          | Some (_, _, count) ->
            Alcotest.(check int) (name ^ " timer count") 1 count
          | None -> Alcotest.fail (name ^ ": no timer"))
        [ "a"; "b"; "c" ])

let test_span_with_exception_safe () =
  with_obs (fun () ->
      (match Obs.Span.with_ "boom" (fun () -> failwith "x") with
       | _ -> Alcotest.fail "expected exception"
       | exception Failure _ -> ());
      Alcotest.(check int) "depth restored" 0 (span_depth ());
      match Obs.Timer.find "boom" with
      | Some (_, _, 1) -> ()
      | _ -> Alcotest.fail "span timing recorded despite exception")

(* the ring holds the last 4096 events *)
let test_trace_ring_bounded () =
  with_obs (fun () ->
      for i = 1 to 4096 + 24 do
        Obs.Trace.point ~detail:(string_of_int i) "tick"
      done;
      let t = trace () in
      Alcotest.(check int) "all recorded" (4096 + 24)
        (int_of (member "recorded" t));
      Alcotest.(check int) "capacity" 4096 (int_of (member "capacity" t));
      Alcotest.(check int) "dropped" 24 (int_of (member "dropped" t));
      let evs = trace_events () in
      Alcotest.(check int) "window bounded" 4096 (List.length evs);
      Alcotest.(check int) "oldest retained is 24" 24
        (match evs with (seq, _, _, _) :: _ -> seq | [] -> -1);
      let newest =
        match member "events" t with
        | J.List l -> member "detail" (List.nth l (List.length l - 1))
        | _ -> J.Null
      in
      Alcotest.(check bool) "the newest event is the last one" true
        (newest = J.String (string_of_int (4096 + 24))))

(* --- snapshots and real solves ---------------------------------------- *)

let test_snapshot_json () =
  with_obs (fun () ->
      (match solve_counter () with
       | E.Solve.Completed _ -> ()
       | E.Solve.Could_not_complete _ ->
         Alcotest.fail "counter:3 should solve");
      let snap = Obs.Stats.snapshot () in
      check_json "snapshot" snap;
      check_json "trace" (Obs.Trace.to_json ());
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true
            (Helpers.contains key snap))
        [ "\"enabled\""; "\"counters\""; "\"gauges\""; "\"timers\"";
          "\"derived\""; "\"trace\""; "\"bdd_cache_hit_rate\"";
          "\"ocaml\""; "\"ocaml.minor_words\""; "\"ocaml.major_words\"";
          "\"ocaml.minor_collections\"" ]);
  (* disabled snapshot is still valid JSON *)
  check_json "disabled snapshot" (Obs.Stats.snapshot ())

let test_solve_populates_counters () =
  with_obs (fun () ->
      (match solve_counter () with
       | E.Solve.Completed _ -> ()
       | E.Solve.Could_not_complete _ ->
         Alcotest.fail "counter:3 should solve");
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " nonzero") true
            (Obs.Counter.find name > 0))
        [ "bdd.mk_calls"; "bdd.nodes_created"; "bdd.cache.lookups";
          "image.calls"; "image.conjunctions"; "subset.split_calls";
          "subset.arcs"; "subset.states_expanded" ];
      (* the worklist CSF replaced the sweeps in the solve path: it only
         counts deletions (possibly zero), so the counter must be
         registered but csf.passes stays untouched *)
      Alcotest.(check bool) "csf.worklist_deletions registered" true
        (List.mem "csf.worklist_deletions" (snapshot_names "counters"));
      Alcotest.(check int) "csf.passes untouched by solve" 0
        (Obs.Counter.find "csf.passes");
      Alcotest.(check bool) "peak nodes tracked" true
        (Obs.Gauge.find "bdd.peak_resident" > 0);
      Alcotest.(check bool) "cache hits cannot exceed lookups" true
        (Obs.Counter.find "bdd.cache.hits"
         <= Obs.Counter.find "bdd.cache.lookups");
      (* the nested span structure of a solve reached phase depth *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (_, depth, kind, name) ->
          if kind = "enter" then Hashtbl.replace seen name depth)
        (trace_events ());
      Alcotest.(check (option int)) "solve span at depth 0" (Some 0)
        (Hashtbl.find_opt seen "solve");
      Alcotest.(check bool) "an attempt span nests under solve" true
        (Hashtbl.fold
           (fun name d acc ->
             acc
             || (d = 1 && String.length name > 8 && String.sub name 0 8 = "attempt."))
           seen false);
      Alcotest.(check bool) "a phase span nests under the attempt" true
        (Hashtbl.fold
           (fun name d acc ->
             acc
             || (d = 2 && String.length name > 6 && String.sub name 0 6 = "phase."))
           seen false))

(* The kernel tallies cache probes in its own array and derives the named
   per-op and total counters when Obs reads them: the totals must equal
   the per-op sums, and a reset must also drop tallies not yet read. *)
let test_cache_tallies_fold_on_read () =
  with_obs (fun () ->
      let ops = [ "ite"; "not"; "exists"; "and_exists"; "cofactor_cube" ] in
      let sum prefix =
        List.fold_left (fun a op -> a + Obs.Counter.find (prefix ^ op)) 0 ops
      in
      ignore (solve_counter ());
      let lookups = Obs.Counter.find "bdd.cache.lookups" in
      Alcotest.(check bool) "probes counted" true (lookups > 0);
      Alcotest.(check int) "lookups = sum of per-op lookups" lookups
        (sum "bdd.cache.lookups.");
      Alcotest.(check int) "hits = sum of per-op hits"
        (Obs.Counter.find "bdd.cache.hits") (sum "bdd.cache.hits.");
      Alcotest.(check int) "a second read adds nothing" lookups
        (Obs.Counter.find "bdd.cache.lookups");
      ignore (solve_counter ());
      Obs.reset ();
      Alcotest.(check int) "reset drops unread tallies" 0
        (Obs.Counter.find "bdd.cache.lookups"))

(* [Solve.verify] is timed under its own span, so [--verify --stats]
   reports the §4 checks *)
let test_verify_timed () =
  match solve_counter () with
  | E.Solve.Could_not_complete _ -> Alcotest.fail "counter:3 should solve"
  | E.Solve.Completed r ->
    with_obs (fun () ->
        let contained, equal = E.Solve.verify r in
        Alcotest.(check (pair bool bool)) "checks pass" (true, true)
          (contained, equal);
        match Obs.Timer.find "verify" with
        | Some (_, _, count) ->
          Alcotest.(check int) "timers.verify count" 1 count
        | None -> Alcotest.fail "no verify timer")

let test_cnc_flushes_partial_stats () =
  with_obs (fun () ->
      let row = Circuits.Suite.find "t298" in
      let outcome =
        E.Solve.solve_split ~node_limit:100
          ~method_:E.Solve.default_partitioned row.Circuits.Suite.net
          ~x_latches:row.Circuits.Suite.x_latches
      in
      (match outcome with
       | E.Solve.Could_not_complete { reason; _ } ->
         Alcotest.(check string) "node-limit reason" "node limit exceeded"
           reason
       | E.Solve.Completed _ -> Alcotest.fail "expected CNC under 100 nodes");
      (* the failed attempt still left its footprint in the counters and a
         valid snapshot *)
      Alcotest.(check bool) "partial mk_calls" true
        (Obs.Counter.find "bdd.mk_calls" > 0);
      Alcotest.(check bool) "attempt failure traced" true
        (List.exists
           (fun (_, _, _, name) -> name = "solve.attempt_failed")
           (trace_events ()));
      check_json "partial snapshot" (Obs.Stats.snapshot ()))

(* --- OCaml heap traffic ----------------------------------------------- *)

let heap_field name = int_of (member name (member "ocaml" (snapshot ())))

let test_heap_traffic_since_reset () =
  Obs.reset ();
  let l = Sys.opaque_identity (List.init 1000 Fun.id) in
  let a = Sys.opaque_identity (Array.make 10_000 0) in
  (* a cons cell is three words; the array goes straight to the major
     heap *)
  let minor = heap_field "ocaml.minor_words" in
  let major = heap_field "ocaml.major_words" in
  Alcotest.(check bool) "the list's minor words" true
    (minor >= 3 * List.length l);
  Alcotest.(check bool) "the array's major words" true
    (major >= Array.length a);
  Alcotest.(check bool) "minor collections counted" true
    (heap_field "ocaml.minor_collections" >= 0);
  Obs.reset ();
  Alcotest.(check bool) "reset restarts the reading" true
    (heap_field "ocaml.minor_words" < 3 * List.length l)

(* A corpus-shaped request: a 3-latch, 2-level random_logic netlist split
   on two latches (9 subset states), solved and verified with Obs off, as
   the solver benchmark runs it. The second of two runs is measured, so
   one-time growth of the reusable buffers does not count. It allocated
   9,511 minor words when this bound was set (10,072 before the netlists'
   topological order stopped being built as a list on every walk, 12,690
   before the fixed path around the subset construction stopped using
   generic tables and copies, 27,418 before the construction's memos,
   renames and schedule stopped allocating per node and per variable);
   the bound is 1.5 times that. Its major words, by the same rule, are
   4,613: mostly the manager's tables, the computed cache among them
   (10,757 when the cache started at 4096 entries, not at the store's
   1024 slots). *)
let corpus_request_minor_words = 9_511
let corpus_request_major_words = 4_613

let test_corpus_request_allocation () =
  let net =
    G.random_logic ~seed:2 ~inputs:3 ~outputs:2 ~latches:3 ~levels:2 ()
  in
  let request () =
    let minor0 = Gc.minor_words () in
    let _, _, major0 = Gc.counters () in
    (match
       E.Solve.solve_split ~method_:E.Solve.default_partitioned net
         ~x_latches:[ "x1"; "x2" ]
     with
     | E.Solve.Completed r ->
       Alcotest.(check (pair bool bool)) "verified" (true, true)
         (E.Solve.verify r)
     | E.Solve.Could_not_complete _ -> Alcotest.fail "request did not solve");
    let _, _, major1 = Gc.counters () in
    let minor1 = Gc.minor_words () in
    (* [Gc.counters]'s minor words advance only at a minor collection *)
    (int_of_float (minor1 -. minor0), int_of_float (major1 -. major0))
  in
  Obs.set_enabled false;
  ignore (request () : int * int);
  let minor, major = request () in
  let check what words measured =
    let bound = measured * 3 / 2 in
    if words > bound then
      Alcotest.failf "a corpus request allocated %d %s words (bound %d)"
        words what bound
  in
  check "minor" minor corpus_request_minor_words;
  check "major" major corpus_request_major_words

let () =
  Alcotest.run "obs"
    [ ( "registry",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_counters_and_gauges;
          Alcotest.test_case "engine counters shared" `Quick
            test_engine_counters_shared;
          Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert
        ] );
      ( "spans",
        [ Alcotest.test_case "nesting and unwinding" `Quick
            test_span_nesting_and_unwinding;
          Alcotest.test_case "exception-safe with_" `Quick
            test_span_with_exception_safe;
          Alcotest.test_case "trace ring bounded" `Quick
            test_trace_ring_bounded ] );
      ( "solves",
        [ Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
          Alcotest.test_case "counters populated" `Quick
            test_solve_populates_counters;
          Alcotest.test_case "cache tallies fold on read" `Quick
            test_cache_tallies_fold_on_read;
          Alcotest.test_case "cnc partial stats" `Quick
            test_cnc_flushes_partial_stats;
          Alcotest.test_case "verify timed" `Quick test_verify_timed ] );
      ( "heap traffic",
        [ Alcotest.test_case "snapshot reading since reset" `Quick
            test_heap_traffic_since_reset;
          Alcotest.test_case "corpus request allocation" `Quick
            test_corpus_request_allocation ] ) ]
