(** The Table-1 reproduction harness behind [lesolve table1]: runs a suite
    row with both methods under a resource budget, formats the table with
    the paper's columns, writes the machine-readable baseline and runs the
    §4 checks. *)

type row_result = {
  row : Circuits.Suite.row;
  part : Equation.Solve.outcome;
  mono : Equation.Solve.outcome;
  part_fields : (string * Obs.Json.t) list;
      (** the partitioned flow's fields of its {!circuit_json} entry *)
  mono_fields : (string * Obs.Json.t) list;
      (** the monolithic flow's, for the entry's ["monolithic"] object *)
}

val default_time_limit : float
(** CPU seconds per (row, method) before declaring CNC. *)

val default_node_limit : int
(** BDD nodes per run before declaring CNC (the memory budget). *)

val run_row :
  ?time_limit:float ->
  ?node_limit:int ->
  Circuits.Suite.row ->
  row_result

val print_table1 : Format.formatter -> row_result list -> unit
(** The paper's Table 1 layout: Name, i/o/cs, Fcs/Xcs, States(X), Part,s,
    Mono,s, Ratio (with CNC entries where a run exhausted its budget): a
    header, then one line per row. *)

val circuit_json : row_result -> Obs.Json.t
(** A row's entry in the ["circuits"] list of {!bench_json}. *)

val bench_json :
  ?time_limit:float -> ?node_limit:int -> Obs.Json.t list -> string
(** The text of the machine-readable baseline, with a trailing newline:
    [{"suite":"table1", "time_limit_s":..., "node_limit":...,
    "circuits":[...]}], the list made of the {!circuit_json} entries of the
    rows. An entry is [{"name":..., FIELDS, "monolithic":{FIELDS}}]: the
    partitioned flow's fields, then the monolithic flow's in a nested
    object. FIELDS are, in this order:

    - [time_s]: CPU seconds of the solve (the budget's time on CNC);
    - [peak_nodes]: the outcome's, or its final attempt's on CNC;
    - [image_calls]: delta of the [image.calls] obs counter;
    - [cache_hit_rate]: computed-cache hits over lookups;
    - [and_exists_lookups], [and_exists_hits], [and_exists_hit_rate]: the
      same for the fused kernel;
    - [split_memo_hits]: delta of [subset.split_memo_hits];
    - [subset_states]: as [peak_nodes];
    - [csf_time_s]: CPU seconds of the [Csf] phase ([phase.csf] timer);
    - [csf_worklist_deletions]: delta of [csf.worklist_deletions];
    - [gc_runs], [gc_nodes_swept]: deltas of [bdd.gc.runs] and
      [bdd.gc.nodes_swept];
    - [gc_dead_ratio]: nodes swept over nodes created during the solve;
    - [completed]: [false] when the outcome was CNC.

    The fields read from obs counters and timers are [0] unless
    observability was enabled during the run. *)

val verify_row : ?time_limit:float -> row_result -> (bool * bool) option
(** Run the §4 checks on the partitioned result, when it completed — under
    a fresh time budget (default {!default_time_limit}), so verification
    can no longer run unbounded; [None] also when the budget is
    exhausted. *)
