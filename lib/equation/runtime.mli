(** Solver runtime: phase-scoped resource governance and deterministic
    fault injection.

    A {!t} owns the whole resource story of one [solve_split] call: the
    CPU deadline, the BDD node budget, the phase the solver is currently
    in, and an optional injected fault. Every long-running loop in the
    solver ticks the runtime (through {!ticker}); image computations
    call {!tick_image}. Blow-ups surface as {!Exceeded} (deadline) or
    {!Bdd.Manager.Node_limit_exceeded} (node budget / injected fault),
    which {!Solve.solve_split} converts into its graceful-degradation
    ladder and, ultimately, a structured "could not complete" outcome. *)

exception Exceeded
(** CPU-time budget exhaustion: the deadline passed (or a [Deadline_at]
    fault fired). {!Solve.solve_split} turns it into a "could not
    complete" (CNC) outcome, as in the paper's Table 1. *)

type phase =
  | Build  (** problem construction and relation building *)
  | Subset  (** the (modified) subset construction *)
  | Csf  (** CSF extraction: prefix closure + progressive *)
  | Verify  (** the §4 verification checks *)

val phase_name : phase -> string
(** ["build"], ["subset"], ["csf"], ["verify"]. *)

(** Deterministic fault injection: make every failure path reachable in
    tests and from the CLI without relying on real blow-ups. *)
module Fault : sig
  type t
  (** A fault that fires a number of times and is inert afterwards, so a
      retry after an injected failure can succeed deterministically. *)

  val of_string : string -> (t, string) result
  (** Parse the fault syntax of the CLI's [LESOLVE_FAULT] variable:
      [KIND:ARG[:TIMES]], where [TIMES] (default 1, positive) is the
      firing count and the forms are:
      - [mk:N]: fail the Nth fresh node allocation after {!attach} with
        {!Bdd.Manager.Node_limit_exceeded};
      - [image:K]: raise {!Bdd.Manager.Node_limit_exceeded} at the Kth
        image computation after {!attach};
      - [deadline:PHASE]: simulate deadline expiry ({!Exceeded}) on
        entering [PHASE], one of [build|subset|csf|verify], or on the
        first tick inside it.

      [N] and [K] must be positive. Examples: ["mk:5000"], ["image:3:2"],
      ["deadline:csf"]. *)
end

type t

val create :
  ?deadline:float -> ?node_limit:int -> ?fault:Fault.t -> unit -> t
(** [deadline] is an absolute [Sys.time] value; [node_limit] bounds each
    attached manager's total node count. *)

val attach : t -> Bdd.Manager.t -> unit
(** Point the runtime at the manager of the current solve attempt: sets
    the manager's node limit, installs the [Mk_fail] allocation hook when
    such a fault is still live, and resets the per-attempt image and
    subset-state counters. Call once per attempt (the degradation ladder
    attaches each fresh or reordered manager in turn). *)

val detach : t -> Bdd.Manager.t -> unit
(** Lift the node limit and allocation hook from a manager that is being
    abandoned — required before migrating its contents to a reordered
    manager, since reading a full manager is fine but rebuilding its
    relation parts may allocate a few more nodes. *)

val enter_phase : t -> phase -> unit
(** Record the phase and immediately check the deadline (and any
    [Deadline_at] fault targeting the new phase). *)

val phase : t -> phase

val tick_image : t -> unit
(** A tick (see {!ticker}) plus the per-attempt image counter; fires a
    pending [image] fault. Call once per image computation. *)

val note_subset_states : t -> int -> unit
(** Record the number of subset states explored so far, so a failed
    attempt can report its partial progress. *)

val subset_states : t -> int
(** Subset states recorded since the last {!attach}. *)

val images : t -> int
(** Image computations since the last {!attach}. *)

val ticker : t option -> unit -> unit
(** [ticker (Some rt)] is the cheap strided check placed in every solver
    loop: each call fires a pending [deadline] fault for the current
    phase, and every 32nd call compares [Sys.time ()] against the
    deadline, raising {!Exceeded} past it. [ticker None] is a no-op. *)
