module S = Equation.Solve
module R = Equation.Runtime

type row_result = {
  row : Circuits.Suite.row;
  part : S.outcome;
  mono : S.outcome;
  part_fields : (string * Obs.Json.t) list;
  mono_fields : (string * Obs.Json.t) list;
}

let default_time_limit = 120.0
let default_node_limit = 10_000_000

(* The Obs counters a flow's entry reads, as deltas across its solve *)
let counters =
  [ "image.calls"; "bdd.cache.hits"; "bdd.cache.lookups";
    "bdd.cache.hits.and_exists"; "bdd.cache.lookups.and_exists";
    "subset.split_memo_hits"; "csf.worklist_deletions"; "bdd.gc.runs";
    "bdd.gc.nodes_swept"; "bdd.nodes_created" ]

let csf_cpu () =
  match Obs.Timer.find "phase.csf" with
  | Some (_, cpu_s, _) -> cpu_s
  | None -> 0.0

(* A flow's outcome and the fields of its Table-1 entry: the outcome's
   own figures plus deltas of the global obs counters across the solve.
   With observability disabled the deltas (image calls, cache rates, CSF
   time, GC figures) are zero; the outcome's fields still hold. *)
let with_stats solve =
  let read () = List.map Obs.Counter.find counters in
  let before = read () and csf_cpu0 = csf_cpu () in
  let outcome = solve () in
  let deltas = List.combine counters (List.map2 ( - ) (read ()) before) in
  let delta name = List.assoc name deltas in
  let rate hits lookups =
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  let time_s, peak_nodes, subset_states, completed =
    match outcome with
    | S.Completed r ->
      (r.S.cpu_seconds, r.S.peak_nodes, r.S.subset_states, true)
    | S.Could_not_complete { cpu_seconds; attempts; _ } ->
      (* the request's partial progress is its final attempt's *)
      let final = List.hd (List.rev attempts) in
      (cpu_seconds, final.S.peak_nodes, final.S.subset_states, false)
  in
  let open Obs.Json in
  ( outcome,
    [ ("time_s", Float time_s);
      ("peak_nodes", Int peak_nodes);
      ("image_calls", Int (delta "image.calls"));
      ( "cache_hit_rate",
        Float (rate (delta "bdd.cache.hits") (delta "bdd.cache.lookups")) );
      ("and_exists_lookups", Int (delta "bdd.cache.lookups.and_exists"));
      ("and_exists_hits", Int (delta "bdd.cache.hits.and_exists"));
      ( "and_exists_hit_rate",
        Float
          (rate
             (delta "bdd.cache.hits.and_exists")
             (delta "bdd.cache.lookups.and_exists")) );
      ("split_memo_hits", Int (delta "subset.split_memo_hits"));
      ("subset_states", Int subset_states);
      ("csf_time_s", Float (csf_cpu () -. csf_cpu0));
      ("csf_worklist_deletions", Int (delta "csf.worklist_deletions"));
      ("gc_runs", Int (delta "bdd.gc.runs"));
      ("gc_nodes_swept", Int (delta "bdd.gc.nodes_swept"));
      ( "gc_dead_ratio",
        Float (rate (delta "bdd.gc.nodes_swept") (delta "bdd.nodes_created"))
      );
      ("completed", Bool completed) ] )

let run_row ?(time_limit = default_time_limit)
    ?(node_limit = default_node_limit) (row : Circuits.Suite.row) =
  let solve method_ () =
    S.solve_split ~node_limit ~time_limit ~method_
      row.Circuits.Suite.net ~x_latches:row.Circuits.Suite.x_latches
  in
  let part, part_fields = with_stats (solve S.default_partitioned) in
  let mono, mono_fields = with_stats (solve S.Monolithic) in
  { row; part; mono; part_fields; mono_fields }

let states_cell = function
  | S.Completed r -> string_of_int r.S.csf_states
  | S.Could_not_complete _ -> "-"

let time_cell = function
  | S.Completed r -> Printf.sprintf "%.2f" r.S.cpu_seconds
  | S.Could_not_complete _ -> "CNC"

let ratio_cell part mono =
  match (part, mono) with
  | S.Completed p, S.Completed m ->
    if p.S.cpu_seconds < 1e-6 then "-"
    else Printf.sprintf "%.1f" (m.S.cpu_seconds /. p.S.cpu_seconds)
  | _, _ -> "-"

let print_table1_header fmt =
  Format.fprintf fmt
    "%-8s %-10s %-8s %10s %8s %8s %7s@."
    "Name" "i/o/cs" "Fcs/Xcs" "States(X)" "Part,s" "Mono,s" "Ratio"

let print_table1_row fmt { row; part; mono; _ } =
  let i, o, cs, fcs, xcs = Circuits.Suite.profile row in
  Format.fprintf fmt "%-8s %-10s %-8s %10s %8s %8s %7s@."
    row.Circuits.Suite.name
    (Printf.sprintf "%d/%d/%d" i o cs)
    (Printf.sprintf "%d/%d" fcs xcs)
    (states_cell part) (time_cell part) (time_cell mono)
    (ratio_cell part mono)

let print_table1 fmt results =
  print_table1_header fmt;
  List.iter (print_table1_row fmt) results

let circuit_json { row; part_fields; mono_fields; _ } =
  Obs.Json.Obj
    (("name", Obs.Json.String row.Circuits.Suite.name)
     :: part_fields
    @ [ ("monolithic", Obs.Json.Obj mono_fields) ])

let bench_json ?(time_limit = default_time_limit)
    ?(node_limit = default_node_limit) circuits =
  Obs.Json.to_string
    (Obs.Json.Obj
       [ ("suite", Obs.Json.String "table1");
         ("time_limit_s", Obs.Json.Float time_limit);
         ("node_limit", Obs.Json.Int node_limit);
         ("circuits", Obs.Json.List circuits) ])
  ^ "\n"

let verify_row ?(time_limit = default_time_limit) { part; _ } =
  match part with
  | S.Completed r -> (
    let rt = R.create ~deadline:(Sys.time () +. time_limit) () in
    match S.verify ~runtime:rt r with
    | checks -> Some checks
    | exception Equation.Runtime.Exceeded -> None)
  | S.Could_not_complete _ -> None
