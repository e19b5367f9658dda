(** Lightweight observability for the solver: monotonic counters, max
    gauges, accumulated wall/CPU timers, a span-scoped event trace in a
    bounded ring buffer, and a hand-rolled JSON snapshot — no
    dependencies beyond the compiler distribution.

    The layer is process-global and disabled by default. Hot paths guard
    their updates with a single branch on {!on}, so the cost with stats
    off is one boolean load per instrumentation site; everything else
    (spans, trace, timers) checks {!on} internally. Counter/gauge
    registration at module-initialization time is free either way. *)

val on : bool ref
(** The single enable flag. Hot paths read it directly:
    [if !Obs.on then Obs.Counter.bump c]. Prefer {!set_enabled}
    elsewhere — it also stamps the trace time base. *)

val set_enabled : bool -> unit
(** Enable or disable recording. Enabling does not clear prior data;
    call {!reset} for a fresh measurement window. *)

val reset : unit -> unit
(** Zero every registered counter, gauge and timer, drop all trace
    events, and restart the trace clock and the heap-traffic reading of
    {!Stats.snapshot}. Registrations survive. *)

(** Minimal JSON emitter (no parser, no dependencies). Floats are
    rendered finite (NaN/infinities become [0]); strings are escaped per
    RFC 8259. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
end

(** Named monotonic counters in a global registry. *)
module Counter : sig
  type t

  val make : string -> t
  (** Register (or fetch) the counter with this name. Idempotent. *)

  val dummy : t
  (** An unregistered sink counter, for indexed tables with unused
      slots; never appears in snapshots. *)

  val bump : t -> unit
  (** Unconditional increment — the caller guards with [!Obs.on]. *)

  val add : t -> int -> unit

  val find : string -> int
  (** Current value by name; [0] when no such counter is registered. *)

  val on_read : (unit -> unit) -> unit
  (** Register a fold run before every read ({!find}, the snapshot) and
      before {!reset}. A hot path that tallies into
      its own array (one store per event, several counters derived from
      it) registers a function that adds the pending tallies to named
      counters and zeroes them. *)
end

(** Named high-water-mark gauges. *)
module Gauge : sig
  type t

  val make : string -> t

  val set_max : t -> int -> unit
  (** Raise the gauge to [v] if above its current value. The caller
      guards with [!Obs.on]. *)

  val set : t -> int -> unit
  val find : string -> int
end

(** Accumulated durations by name: total wall seconds, total CPU
    seconds, and an invocation count. {!Span.exit} feeds these
    automatically, one timer per span name. *)
module Timer : sig
  val find : string -> (float * float * int) option
  (** [(wall_s, cpu_s, count)]. *)
end

(** The event trace: a ring buffer of the last 4096 span enters/exits
    and point events, timestamped against the last {!reset}. *)
module Trace : sig
  val point : ?detail:string -> string -> unit
  (** Record an instantaneous event at the current span depth. *)

  val to_json : unit -> string
  (** The retained window as a JSON object:
      [{"recorded":N,"capacity":4096,"dropped":D,"events":[...]}]:
      [N] events were recorded since the last {!reset}, and the oldest
      [D = max 0 (N - 4096)] of them were overwritten. Each event, oldest
      first, is [{"seq","t","depth","kind","name"}] plus ["detail"] when
      it has one and ["dur_s"] on an exit: its 0-based sequence number,
      seconds since the last {!reset}, the span-nesting depth it occurred
      at, ["enter"], ["exit"] or ["point"], and the span's wall
      duration. *)
end

(** Scoped spans. [enter] pushes a frame; [exit] pops it, emitting an
    [Exit] trace event and accumulating the duration into the timer of
    the same name. Exiting a span that still has open children closes
    the children first (so an exception that abandons inner spans
    cannot corrupt the nesting); exiting a token that is no longer on
    the stack is a no-op. *)
module Span : sig
  type t

  val enter : string -> t
  val exit : t -> unit

  val with_ : string -> (unit -> 'a) -> 'a
  (** [enter]/[exit] around the thunk, exception-safe. *)
end

(** Snapshots of everything above. *)
module Stats : sig
  val snapshot : unit -> string
  (** The full state as a JSON object:
      {[ { "enabled": bool,
           "counters": { name: int, ... },
           "gauges": { name: int, ... },
           "timers": { name: {"wall_s","cpu_s","count"}, ... },
           "derived": { "bdd_cache_hit_rate": float,
                        "bdd_unique_hit_rate": float,
                        "bdd_dead_ratio": float },
           "trace": { "recorded": int, "capacity": int },
           "ocaml": { "ocaml.minor_words": int,
                      "ocaml.major_words": int,
                      "ocaml.minor_collections": int } } ]}
      The derived rates are quotients of the [bdd.cache.*], [bdd.unique.*]
      and [bdd.gc.*] counters maintained by [Bdd.Manager] ([0.0] when the
      denominators are zero, e.g. in a non-BDD process);
      ["bdd_dead_ratio"] is the fraction of all allocated nodes that the
      mark-and-sweep collector later reclaimed. ["ocaml"] is the OCaml
      heap traffic of the process since the last {!reset}, with Obs on or
      off: the words allocated in the minor heap and in the major heap
      (promoted words included) and the minor collections. It stays out
      of ["counters"], which depend only on the node stream, while the
      heap traffic depends on the build as well. *)
end
