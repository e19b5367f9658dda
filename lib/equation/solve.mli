(** Top-level driver: split a circuit, build the equation instance, compute
    the most general prefix-closed solution with the chosen method, extract
    the CSF, and optionally verify it — all under a {!Runtime.t} resource
    budget that converts blow-ups into structured CNC outcomes (Table 1's
    "CNC").

    A [Partitioned] request recovers from node-limit blow-ups with one fixed
    degradation ladder:

    + ["partitioned/greedy"]: greedy early quantification over the
      affinity-clustered partition, in a fresh manager;
    + ["gc-retry"]: collect garbage on the failed attempt's manager
      ({!Bdd.Manager.collect}) and retry in place — the cheapest rung;
    + ["reorder-retry"]: clear the operation caches, migrate the instance
      to a FORCE-reordered fresh manager ({!Problem.reorder}) and retry;
    + ["partitioned/given"]: rebuild from scratch and run the unclustered
      partition with the given quantification order;
    + report {!Could_not_complete} with the full attempt history.

    The ladder skips a rung that would only replay a failure the failed
    attempt's manager proved ({!Bdd.Manager.limit_failure}): gc-retry when
    the live set still filled the budget after a collection, and every
    later rung when the first attempt hit the node limit inside
    {!Split.problem}. Skipped rungs are listed with their reason
    ([skipped]). Injected faults record no reason and skip nothing.

    Deadline exhaustion stops the ladder immediately — with no time left, a
    different kernel cannot help. A [Monolithic] request makes a single
    attempt: in the paper's Table 1 the monolithic flow fails exactly where
    the partitioned one struggles, so it is no rung of the ladder. *)

type method_ =
  | Partitioned  (** the paper's flow on the partitioned representation *)
  | Monolithic  (** the traditional flow on monolithic relations *)

val default_partitioned : method_
(** [Partitioned] — the configuration the paper advocates. *)

val method_label : method_ -> string
(** ["partitioned/greedy"] or ["monolithic"]: the label of the first
    attempt of a request. *)

(** One failed solve attempt, oldest first in the histories below. *)
type attempt = {
  label : string;
      (** which rung: {!method_label}, ["gc-retry"], ["reorder-retry"] or
          ["partitioned/given"] *)
  kernel : string;
      (** image-kernel configuration of the rung — clustering and
          quantification schedule: {!Partitioned.kernel_label} of the
          rung's strategy (["affinity:500/greedy"] or
          ["unclustered/given"]) or ["monolithic-relation"]; emitted as
          the [solve.kernel] trace point when the rung starts *)
  phase : Runtime.phase;  (** phase reached when the attempt failed *)
  subset_states : int;  (** subset states explored before the failure *)
  peak_nodes : int;  (** the attempt's manager node count at failure *)
  cpu_seconds : float;  (** CPU time spent in this attempt *)
  failure : string;  (** ["node limit exceeded"] or ["time limit exceeded"] *)
}

(** Why the ladder skipped a rung: the failed attempt's manager
    ({!Bdd.Manager.limit_failure}) proved that the rung would only replay
    the failure. *)
type skip_reason =
  | Same_live_set
      (** gc-retry after a failure whose manager collected at the limit and
          still had the limit's worth of live nodes
          ({!Bdd.Manager.Live_set}): the retry rebuilds the same live set *)
  | Same_build
      (** any rung after a first attempt that hit the node limit inside
          {!Split.problem}: it would rebuild the same problem under the same
          limit, so the ladder ends there *)

val describe_skip : skip_reason -> string
(** One line for a skip, e.g. ["live set filled the budget after a
    collection"]. *)

type report = {
  solved_by : string;
      (** label of the attempt that succeeded (equals the requested
          method's {!method_label} when the first attempt succeeded) *)
  problem : Problem.t;
  split : Split.t;
  csf : Fsa.Automaton.t;
  csf_states : int;
  csf_deletions : int;
      (** state deletions the worklist CSF extraction performed
          ({!Csf.of_arena}) *)
  subset_states : int;
  cpu_seconds : float;  (** total, including failed attempts *)
  peak_nodes : int;
  attempts : attempt list;  (** failed attempts preceding the success *)
  skipped : (string * skip_reason) list;
      (** rungs the ladder skipped on the way (label, reason) *)
}

type outcome =
  | Completed of report
  | Could_not_complete of {
      cpu_seconds : float;  (** total, across every attempt *)
      reason : string;
          (** the final attempt's [failure]: ["node limit exceeded"] or
              ["time limit exceeded"] *)
      attempts : attempt list;
          (** every failed attempt, oldest first; never empty, and the
              last one is where the request stopped (its phase, subset
              states and node peak are the request's partial progress) *)
      skipped : (string * skip_reason) list;
          (** rungs the ladder skipped (label, reason), in ladder order *)
    }
      (** The request did not complete (Table 1's "CNC"); the record has
          the shape of {!report}'s failure history. *)

val solve_split :
  ?node_limit:int ->
  ?time_limit:float ->
  ?fault:Runtime.Fault.t ->
  method_:method_ ->
  Network.Netlist.t ->
  x_latches:string list ->
  outcome
(** A fresh BDD manager per attempt, so methods can be timed independently.
    [node_limit] is the node budget of every attempt's manager;
    [time_limit] is CPU seconds for the whole computation, across all
    attempts. Raises [Invalid_argument] when [node_limit] is below 1 or
    above {!Bdd.Manager.max_nodes}, or when [time_limit] is not a
    positive number (NaN included). [fault] injects a
    deterministic fault for testing; the library reads no environment
    variable, so without [fault] no fault is injected. Every manager the
    solve creates collects garbage automatically, and the solve collects
    once more between the subset-construction and CSF phases. *)

val verify : ?runtime:Runtime.t -> report -> bool * bool
(** [(particular_contained, composition_equals_spec)] for a completed run.
    With [runtime], verification runs in the [Verify] phase under the
    runtime's budget instead of unbounded. Runs under the Obs span
    ["verify"]. *)
