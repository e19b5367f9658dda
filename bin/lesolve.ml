(* lesolve — command-line driver for the language-equation solver.

   Subcommands:
     info     <blif>                      network statistics
     reach    <blif>                      symbolic reachable-state count
     split    <blif> -x l1,l2 [-o out]    latch splitting (writes F as BLIF)
     solve    <blif> -x l1,l2 [...]       compute the CSF of a latch split
     resynth  <blif> -x l1,l2 [...]       extract a Moore sub-solution of the
                                          CSF and synthesize it as BLIF
     gen      <spec> [-o out]             generate a benchmark circuit
     equiv    <blif> <blif>               sequential equivalence check
     simulate <blif> [-n cycles]          random simulation
     table1   [...]                       reproduce the paper's Table 1 *)

module N = Network.Netlist
module E = Equation

open Cmdliner

(* Command-layer error handling: user mistakes (malformed BLIF, an unknown
   latch name, a bad generator spec or fault string) must exit with a
   one-line message and a nonzero status, not an exception backtrace. *)
let guard f =
  try f () with
  | Network.Blif.Parse_error (line, msg) ->
    Format.eprintf "lesolve: BLIF parse error at line %d: %s@." line msg;
    exit 1
  | Invalid_argument msg | Failure msg | Sys_error msg ->
    Format.eprintf "lesolve: %s@." msg;
    exit 1

(* A path is a plain string: a file that cannot be read or written is a
   [Sys_error] from the helpers below, which [guard] reports on one
   line. *)
let network_arg =
  let doc = "Input circuit in BLIF format." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BLIF" ~doc)

let latches_arg =
  let doc =
    "Comma-separated names of the latches to split out as the unknown \
     component X."
  in
  Arg.(
    required
    & opt (some (list string)) None
    & info [ "x"; "latches" ] ~docv:"LATCHES" ~doc)

let method_arg =
  let doc = "Solution method: $(b,partitioned) (default) or $(b,monolithic)." in
  let method_conv =
    Arg.enum
      [ ("partitioned", E.Solve.default_partitioned);
        ("monolithic", E.Solve.Monolithic) ]
  in
  Arg.(
    value
    & opt method_conv E.Solve.default_partitioned
    & info [ "m"; "method" ] ~doc)

let time_limit_arg =
  let doc = "CPU-seconds budget before giving up (CNC)." in
  Arg.(value & opt float 300.0 & info [ "time-limit" ] ~doc)

let node_limit_arg =
  let doc = "BDD-node budget before giving up (CNC)." in
  Arg.(value & opt int 20_000_000 & info [ "node-limit" ] ~doc)

(* The library maps strings; the CLI owns its files. Both helpers close
   the channel when the read or the write raises. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let load path = Network.Blif.parse_string (read_file path)

(* Deterministic fault injection for the solve and resynth commands
   (syntax of [Runtime.Fault.of_string]). Only the CLI reads it: the
   library takes a fault as an argument and reads no environment. *)
let fault_env = "LESOLVE_FAULT"

let fault_of_env () =
  match Sys.getenv_opt fault_env with
  | None | Some "" -> None
  | Some s -> (
    match E.Runtime.Fault.of_string s with
    | Ok f -> Some f
    | Error msg -> invalid_arg (fault_env ^ ": " ^ msg))

(* --- observability flags ---------------------------------------------------- *)

let stats_arg =
  let doc =
    "Record solver statistics (counters, timers, spans) and emit the JSON \
     snapshot to $(docv) after the run; $(b,-) (the default when the flag \
     is given bare) means stdout. Emitted even when the run could not \
     complete, with the partial counters of the failed attempts. Its \
     $(b,ocaml) object is the OCaml heap traffic from the solve on \
     (minor words, major words, minor collections)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record the span/event trace and emit it as JSON to $(docv) after the \
     run; $(b,-) means stdout."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

(* called once the netlist is read: the snapshot's heap traffic is the
   request's, from the solve on *)
let obs_setup ~stats ~trace =
  if stats <> None || trace <> None then begin
    Obs.set_enabled true;
    Obs.reset ()
  end

(* The --stats and --trace output, taken once the request's work (solve,
   verification, certification) is done and before any output file is
   written, so that writing the CSF or the machine adds nothing to it;
   the returned function prints it *)
let obs_snapshot ~stats ~trace =
  let stats = Option.map (fun d -> (d, Obs.Stats.snapshot ())) stats in
  let trace = Option.map (fun d -> (d, Obs.Trace.to_json ())) trace in
  fun () ->
    let write (dest, content) =
      match dest with
      | "-" ->
        print_string content;
        print_newline ()
      | f ->
        write_file f (content ^ "\n");
        Format.eprintf "wrote %s@." f
    in
    Option.iter write stats;
    Option.iter write trace

(* --- ladder history ---------------------------------------------------------- *)

(* The ladder's history is printed here only, each line starting with
   [prefix]: empty for solve and resynth, the row and flow in table1
   ("t526 partitioned: "). *)

let describe_attempt (a : E.Solve.attempt) =
  Printf.sprintf
    "%s [%s] failed in %s phase (%s; %d subset states, %d nodes, %.2fs)"
    a.E.Solve.label a.E.Solve.kernel
    (E.Runtime.phase_name a.E.Solve.phase)
    a.E.Solve.failure a.E.Solve.subset_states a.E.Solve.peak_nodes
    a.E.Solve.cpu_seconds

(* the failed attempts, then the rungs the ladder skipped (these lines
   must not start with "attempt:") *)
let print_attempts ~prefix attempts skipped =
  List.iter
    (fun a -> Format.printf "%s  attempt: %s@." prefix (describe_attempt a))
    attempts;
  List.iter
    (fun (label, why) ->
      Format.printf "%s  skipped: %s (%s)@." prefix label
        (E.Solve.describe_skip why))
    skipped

(* the request's partial progress is its final attempt's *)
let report_cnc ~prefix cpu_seconds reason attempts skipped =
  let stopped =
    List.exists (fun (_, why) -> why = E.Solve.Same_build) skipped
  in
  let final : E.Solve.attempt = List.hd (List.rev attempts) in
  Format.printf
    "%sCNC after %.1fs: %s%s (reached %s phase; %d subset states, %d BDD \
     nodes resident at peak)@."
    prefix cpu_seconds reason
    (if stopped then " while building the problem, ladder stopped" else "")
    (E.Runtime.phase_name final.E.Solve.phase)
    final.E.Solve.subset_states final.E.Solve.peak_nodes;
  print_attempts ~prefix attempts skipped

let report_recovery ~prefix (r : E.Solve.report) =
  match r.E.Solve.attempts with
  | [] -> ()
  | attempts ->
    print_attempts ~prefix attempts r.E.Solve.skipped;
    Format.printf "%srecovered via %s after %d failed attempt(s)@." prefix
      r.E.Solve.solved_by (List.length attempts)

(* --- info ------------------------------------------------------------------ *)

let info_cmd =
  let run path =
    guard @@ fun () ->
    let net = load path in
    Format.printf "%a@." N.pp_stats net;
    Format.printf "latches:%s@."
      (String.concat ""
         (List.map (fun id -> " " ^ N.net_name net id) net.N.latches))
  in
  Cmd.v (Cmd.info "info" ~doc:"Print network statistics")
    Term.(const run $ network_arg)

(* --- reach ------------------------------------------------------------------ *)

let reach_cmd =
  let run path =
    guard @@ fun () ->
    let net = load path in
    let man = Bdd.Manager.create () in
    let sym = Network.Symbolic.of_netlist man net in
    let r, steps = Img.Reach.reachable sym in
    Format.printf "%a@." N.pp_stats net;
    Format.printf "reachable states: %.0f (diameter %d, %d BDD nodes)@."
      (Img.Reach.count_states sym r)
      (steps - 1)
      (Bdd.Ops.size man r)
  in
  Cmd.v (Cmd.info "reach" ~doc:"Count reachable states symbolically")
    Term.(const run $ network_arg)

(* --- split ------------------------------------------------------------------ *)

let split_cmd =
  let out_arg =
    let doc = "Write the fixed component F to this BLIF file." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let run path latches out =
    guard @@ fun () ->
    let net = load path in
    let sp = E.Split.split net ~x_latches:latches in
    Format.printf "F: %a@." N.pp_stats sp.E.Split.f;
    Format.printf "u = {%s}@.v = {%s}@."
      (String.concat ", " sp.E.Split.u_names)
      (String.concat ", " sp.E.Split.v_names);
    match out with
    | Some f ->
      write_file f (Network.Blif.to_string sp.E.Split.f);
      Format.printf "wrote %s@." f
    | None -> ()
  in
  Cmd.v
    (Cmd.info "split" ~doc:"Split latches out of a circuit (the F component)")
    Term.(const run $ network_arg $ latches_arg $ out_arg)

(* --- solve ------------------------------------------------------------------ *)

let solve_cmd =
  let verify_arg =
    let doc = "Verify the result: X_P ⊆ X and F × X_P ≡ S." in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let dot_arg =
    let doc = "Write the CSF automaton to this file in DOT format." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~doc)
  in
  let minimize_arg =
    let doc = "Minimize the CSF before reporting/printing." in
    Arg.(value & flag & info [ "minimize" ] ~doc)
  in
  let aut_arg =
    let doc = "Write the CSF in the .aut exchange format." in
    Arg.(value & opt (some string) None & info [ "aut" ] ~doc)
  in
  let run path latches method_ time_limit node_limit verify dot minimize
      aut stats trace =
    guard @@ fun () ->
    let net = load path in
    obs_setup ~stats ~trace;
    let fault = fault_of_env () in
    match
      E.Solve.solve_split ~node_limit ~time_limit ?fault ~method_ net
        ~x_latches:latches
    with
    | E.Solve.Could_not_complete { cpu_seconds; reason; attempts; skipped } ->
      (* flush the partial counters of the failed attempts before exiting *)
      obs_snapshot ~stats ~trace ();
      report_cnc ~prefix:"" cpu_seconds reason attempts skipped;
      exit 2
    | E.Solve.Completed r ->
      report_recovery ~prefix:"" r;
      Format.printf
        "CSF: %d states (%d subset states, %d worklist deletions), %.3fs, \
         %d BDD nodes resident at peak@."
        r.E.Solve.csf_states r.E.Solve.subset_states r.E.Solve.csf_deletions
        r.E.Solve.cpu_seconds r.E.Solve.peak_nodes;
      let csf =
        if minimize then begin
          let m = Fsa.Minimize.minimize (Fsa.Ops.complete r.E.Solve.csf) in
          Format.printf "minimized: %s@." (Fsa.Print.summary m);
          m
        end
        else r.E.Solve.csf
      in
      let verified =
        if verify then begin
          let contained, equal = E.Solve.verify r in
          Format.printf "X_P ⊆ X: %b@.F × X_P ≡ S: %b@." contained equal;
          contained && equal
        end
        else true
      in
      let obs_emit = obs_snapshot ~stats ~trace in
      if not verified then begin
        obs_emit ();
        exit 3
      end;
      (match dot with
       | Some f ->
         write_file f (Fsa.Print.to_dot ~name:"csf" csf);
         Format.printf "wrote %s@." f
       | None -> ());
      (match aut with
       | Some f ->
         write_file f (Fsa.Aut.to_string csf);
         Format.printf "wrote %s@." f
       | None -> ());
      obs_emit ()
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Compute the complete sequential flexibility of a latch split")
    Term.(
      const run $ network_arg $ latches_arg $ method_arg $ time_limit_arg
      $ node_limit_arg $ verify_arg $ dot_arg $ minimize_arg $ aut_arg $ stats_arg $ trace_arg)

(* --- resynth ----------------------------------------------------------------- *)

let resynth_cmd =
  let out_arg =
    let doc = "Write the synthesized replacement component as BLIF." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let kiss_arg =
    let doc = "Also write the extracted machine in KISS2 format." in
    Arg.(value & opt (some string) None & info [ "kiss" ] ~doc)
  in
  let run path latches time_limit node_limit out kiss stats trace =
    guard @@ fun () ->
    let net = load path in
    obs_setup ~stats ~trace;
    let fault = fault_of_env () in
    match
      E.Solve.solve_split ~node_limit ~time_limit ?fault
        ~method_:E.Solve.default_partitioned net ~x_latches:latches
    with
    | E.Solve.Could_not_complete { cpu_seconds; reason; attempts; skipped } ->
      obs_snapshot ~stats ~trace ();
      report_cnc ~prefix:"" cpu_seconds reason attempts skipped;
      exit 2
    | E.Solve.Completed r ->
      report_recovery ~prefix:"" r;
      Format.printf "CSF: %d states@." r.E.Solve.csf_states;
      (match E.Extract.resynthesize r.E.Solve.problem r.E.Solve.csf with
       | None ->
         Format.printf "no Moore sub-solution found@.";
         obs_snapshot ~stats ~trace ();
         exit 3
       | Some (xnet, machine) ->
         Format.printf "extracted machine: %d states -> %a@."
           (E.Machine.num_states machine)
           N.pp_stats xnet;
         let certified =
           E.Verify.composition_with_machine r.E.Solve.problem machine
         in
         Format.printf "F x X' = S: %b@." certified;
         let obs_emit = obs_snapshot ~stats ~trace in
         if not certified then begin
           obs_emit ();
           exit 4
         end;
         (match out with
          | Some f ->
            write_file f (Network.Blif.to_string xnet);
            Format.printf "wrote %s@." f
          | None -> ());
         (match kiss with
          | Some f ->
            write_file f (E.Kiss.to_kiss2 machine);
            Format.printf "wrote %s@." f
          | None -> ());
         obs_emit ())
  in
  Cmd.v
    (Cmd.info "resynth"
       ~doc:
         "Compute the CSF of a latch split, extract a Moore sub-solution \
          and synthesize it back to a circuit")
    Term.(
      const run $ network_arg $ latches_arg $ time_limit_arg $ node_limit_arg
      $ out_arg $ kiss_arg $ stats_arg $ trace_arg)

(* --- gen -------------------------------------------------------------------- *)

let gen_cmd =
  let spec_arg =
    let doc =
      "Circuit to generate: counter:N, gray:N, shift:N, lfsr:N, johnson:N, \
       arbiter:N, traffic, detector:PATTERN, rnd:SEED:I:O:L:LEVELS, or a \
       Table-1 row name (t510, t208, ...)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPEC" ~doc)
  in
  let out_arg =
    let doc = "Output BLIF file (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc)
  in
  let build spec =
    let int field =
      match int_of_string_opt field with
      | Some n -> n
      | None ->
        failwith
          (Printf.sprintf "bad circuit spec %s: %S is not an integer" spec
             field)
    in
    match String.split_on_char ':' spec with
    | [ "counter"; n ] -> Circuits.Generators.counter (int n)
    | [ "gray"; n ] -> Circuits.Generators.gray_counter (int n)
    | [ "shift"; n ] -> Circuits.Generators.shift_register (int n)
    | [ "lfsr"; n ] -> Circuits.Generators.lfsr (int n)
    | [ "johnson"; n ] -> Circuits.Generators.johnson (int n)
    | [ "arbiter"; n ] -> Circuits.Generators.arbiter (int n)
    | [ "traffic" ] -> Circuits.Generators.traffic_light ()
    | [ "detector"; p ] -> Circuits.Generators.pattern_detector p
    | [ "rnd"; seed; i; o; l; lev ] ->
      Circuits.Generators.random_logic ~seed:(int seed) ~inputs:(int i)
        ~outputs:(int o) ~latches:(int l) ~levels:(int lev) ()
    | [ name ] -> (
      match Circuits.Suite.find name with
      | row -> row.Circuits.Suite.net
      | exception Not_found -> failwith ("unknown circuit spec: " ^ spec))
    | _ -> failwith ("unknown circuit spec: " ^ spec)
  in
  let run spec out =
    guard @@ fun () ->
    let net = build spec in
    let text = Network.Blif.to_string net in
    match out with
    | Some f ->
      write_file f text;
      Format.eprintf "wrote %s (%a)@." f N.pp_stats net
    | None -> print_string text
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a benchmark circuit as BLIF")
    Term.(const run $ spec_arg $ out_arg)

(* --- equiv ------------------------------------------------------------------- *)

let equiv_cmd =
  let second_arg =
    let doc = "Second circuit (BLIF)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BLIF2" ~doc)
  in
  let run path1 path2 =
    guard @@ fun () ->
    let a = load path1 and b = load path2 in
    match Img.Equiv.check a b with
    | Img.Equiv.Equivalent ->
      Format.printf "sequentially equivalent@."
    | Img.Equiv.Different trace ->
      Format.printf "NOT equivalent; distinguishing input sequence (%d cycles):@."
        (List.length trace);
      let in_names =
        List.map (fun id -> N.net_name a id) a.N.inputs
      in
      Format.printf "  %s@." (String.concat " " in_names);
      List.iter
        (fun inputs ->
          Format.printf "  %s@."
            (String.concat " "
               (List.map
                  (fun b -> if b then "1" else "0")
                  (Array.to_list inputs))))
        trace;
      exit 1
  in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:"Check sequential equivalence of two circuits (exact, symbolic)")
    Term.(const run $ network_arg $ second_arg)

(* --- simulate ------------------------------------------------------------------ *)

let simulate_cmd =
  let cycles_arg =
    let doc = "Number of cycles of random stimulus." in
    Arg.(value & opt int 32 & info [ "n"; "cycles" ] ~doc)
  in
  let seed_arg =
    let doc = "Random seed for the stimulus." in
    Arg.(value & opt int 0 & info [ "seed" ] ~doc)
  in
  let run path cycles seed =
    guard @@ fun () ->
    if cycles < 0 then
      invalid_arg
        (Printf.sprintf "--cycles must be at least 0 (got %d)" cycles);
    let net = load path in
    let rng = Random.State.make [| seed |] in
    let ni = N.num_inputs net in
    let trace =
      List.init cycles (fun _ -> Array.init ni (fun _ -> Random.State.bool rng))
    in
    (* print a compact textual table *)
    let in_names = List.map (fun id -> N.net_name net id) net.N.inputs in
    let out_names = List.map fst net.N.outputs in
    Format.printf "cycle %s | %s@."
      (String.concat " " in_names)
      (String.concat " " out_names);
    let st = ref (N.initial_state net) in
    List.iteri
      (fun t inputs ->
        let out, st' = N.step net !st inputs in
        let bits a =
          String.concat " "
            (List.map (fun b -> if b then "1" else "0") (Array.to_list a))
        in
        Format.printf "%5d %s | %s@." t (bits inputs) (bits out);
        st := st')
      trace
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Random-simulate a circuit")
    Term.(const run $ network_arg $ cycles_arg $ seed_arg)

(* --- table1 ------------------------------------------------------------------ *)

let table1_cmd =
  let module H = Harness.Experiments in
  let time_arg =
    let doc =
      "CPU-seconds budget per run, and per verification of a row (CNC \
       beyond it)."
    in
    Arg.(value & opt float H.default_time_limit & info [ "time-limit" ] ~doc)
  in
  let nodes_arg =
    let doc = "BDD-node budget per run (CNC beyond it)." in
    Arg.(value & opt int H.default_node_limit & info [ "node-limit" ] ~doc)
  in
  let json_arg =
    let doc =
      "Write the machine-readable per-circuit baseline (time, peak nodes, \
       image calls, cache hit rate, subset states) to this JSON file; \
       enables observability for the run."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run time_limit node_limit json =
    guard @@ fun () ->
    if json <> None then begin
      Obs.set_enabled true;
      Obs.reset ()
    end;
    let rows = Circuits.Suite.table1 () in
    let results =
      List.map
        (fun (row : Circuits.Suite.row) ->
          Format.eprintf "running %s...@." row.name;
          H.run_row ~time_limit ~node_limit row)
        rows
    in
    (match json with
     | Some f ->
       write_file f
         (H.bench_json ~time_limit ~node_limit
            (List.map H.circuit_json results));
       Format.eprintf "wrote %s@." f
     | None -> ());
    H.print_table1 Format.std_formatter results;
    let report prefix = function
      | E.Solve.Completed r -> report_recovery ~prefix r
      | E.Solve.Could_not_complete { cpu_seconds; reason; attempts; skipped }
        ->
        report_cnc ~prefix cpu_seconds reason attempts skipped
    in
    List.iter
      (fun (r : H.row_result) ->
        report (r.row.name ^ " partitioned: ") r.part;
        report (r.row.name ^ " monolithic: ") r.mono)
      results;
    Format.printf "paper analogs (the original rows these stand in for):@.";
    List.iter
      (fun (row : Circuits.Suite.row) ->
        Format.printf "  %-8s ~ %s@." row.name row.paper_analog)
      rows;
    (* the paper verified every CSF (§4): so does every completed row, and
       a false check, or one that runs out of its budget, fails the command
       as a false check fails solve --verify *)
    let verified (r : H.row_result) =
      match (r.part, H.verify_row ~time_limit r) with
      | E.Solve.Could_not_complete _, _ -> true
      | E.Solve.Completed _, Some (contained, equal) ->
        Format.printf "%s: X_P ⊆ X = %b, F × X_P ≡ S = %b@." r.row.name
          contained equal;
        contained && equal
      | E.Solve.Completed _, None ->
        Format.printf "%s: verification ran out of its %gs budget@."
          r.row.name time_limit;
        false
    in
    if not (List.fold_left (fun ok r -> verified r && ok) true results) then
      exit 3
  in
  Cmd.v
    (Cmd.info "table1"
       ~doc:
         "Reproduce the paper's Table 1 on the analog suite and verify every \
          completed partitioned CSF (exit 3 when a check is false or runs \
          out of its budget)")
    Term.(const run $ time_arg $ nodes_arg $ json_arg)

let () =
  let doc = "language-equation solving with partitioned representations" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "lesolve" ~version:"1.0" ~doc)
          [ info_cmd; reach_cmd; split_cmd; solve_cmd; resynth_cmd; gen_cmd;
            equiv_cmd; simulate_cmd; table1_cmd ]))
