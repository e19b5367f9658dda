(** BDD manager: node store, unique table, operation caches and an
    in-place mark-and-sweep garbage collector.

    Nodes are identified by non-negative integers. The constants [zero] and
    [one] are nodes 0 and 1. All other nodes are decision nodes with a
    variable (identified by its level: smaller level = closer to the root),
    a low child (the [var = false] cofactor) and a high child. The manager
    guarantees canonicity: structurally equal BDDs have equal node ids, so
    semantic equality of functions is integer equality of their roots.

    {2 Garbage collection}

    Dead nodes are reclaimed in place: a sweep threads them onto a free
    list that {!mk} consumes before growing the store. Live ids never move
    (no compaction), so id-keyed client tables stay valid across
    collections. Reachability is defined by explicit roots only — the
    manager cannot see ids held in OCaml data structures. There are three
    mechanisms:

    - {!Roots} sets pin groups of roots for the extent of a call: a set
      exists only inside {!with_roots}, which releases it when the call
      returns or raises, so no set can outlive its scope. One more set
      is registered by {!create} and never released: {!protect} adds to
      it, for nodes that live as long as the manager;
    - an operand stack ({!stack_push}/{!stack_drop}) pins
      intermediates inside recursive operations and the loop-carried
      iterates of the image and reachability loops;
    - {!with_frozen} defers collection entirely for code that holds
      unpinned ids (private memo tables, bulk constructions) — the store
      grows instead.

    Collections are triggered deterministically from {!mk}: only when the
    store is full, the free list is empty, and the estimated dead ratio
    (allocations since the last sweep / live count) reaches
    {!gc_threshold}. No wall-clock or OCaml-heap state is consulted, so a
    run is reproducible allocation by allocation.

    Automatic collection is {e opt-in} ({!set_auto_gc}, default off): it
    is only sound once every node id the client still needs is pinned or
    reachable from a pinned root. The solver pins its roots throughout
    and enables GC on the managers it creates; code using this API
    directly keeps the historical grow-only behavior unless it opts
    in. Explicit {!collect} is available either way. *)

type t
(** A BDD manager. All nodes and operations are relative to one manager;
    mixing node ids across managers is unchecked and meaningless. *)

exception Node_limit_exceeded
(** Raised by node creation when the {e live} node count passes the
    configured limit. Used to convert blow-ups into "could not complete"
    results. A collection lowers the live count, so budgets bound resident
    nodes, not cumulative allocations. *)

val create : ?initial_capacity:int -> unit -> t
(** [create ()] makes a manager with no variables. *)

val zero : int
(** The constant-false node (id 0). *)

val one : int
(** The constant-true node (id 1). *)

val new_var : ?name:string -> t -> int
(** [new_var m] registers a fresh variable at the next level and returns its
    variable index (= its level). Optionally give it a [name] for printing.
    Levels are stored in 32 bits: raises [Invalid_argument] past level
    2{^30}-2. *)

val new_vars : ?prefix:string -> t -> int -> int list
(** [new_vars m n] registers [n] fresh variables named [prefix0..]. *)

val num_vars : t -> int
(** Number of registered variables. *)

val var_name : t -> int -> string
(** [var_name m v] is the printable name of variable [v]. *)

val mk : t -> int -> int -> int -> int
(** [mk m v lo hi] is the canonical node for [if v then hi else lo].
    Requires that [v] is strictly above the levels of [lo] and [hi].
    Reduced: returns [lo] when [lo = hi]. May trigger a garbage
    collection (see module docs); [lo] and [hi] are pinned by [mk]
    itself for the duration. *)

val var : t -> int -> int
(** [var m id] is the variable (level) of node [id]; for the constants,
    a sentinel greater than any variable's level. *)

val low : t -> int -> int
(** Low (else) child. Meaningless on constants. *)

val high : t -> int -> int
(** High (then) child. Meaningless on constants. *)

val is_const : int -> bool
(** True on [zero] and [one]. *)

val dag_size : t -> int list -> int
(** Number of distinct decision nodes reachable from the given roots
    (constants excluded). Allocates nothing. *)

val support : t -> int -> int list
(** The variables a node depends on, ascending; {!Ops.support} is this.
    Memoized by node id: nodes are immutable, so entries never go stale,
    and the collector drops the entries of swept ids before the ids can
    be reused. A miss walks the nodes as {!support_mark} does. *)

val support_mark : t -> int -> Bytes.t -> unit
(** [support_mark m f seen] sets byte [v] of [seen] to ['\001'] for every
    variable [v] of [f], and leaves the other bytes alone: {!support}
    without the memo and without building a list, for a node whose
    support is asked for once. [seen] must have at least {!num_vars}
    bytes. Like {!dag_size}, it marks the nodes it visits in place and
    unmarks them before returning. *)

val live_nodes : t -> int
(** Nodes currently resident in the manager (constants included): the
    live ones and, until a collection sweeps them, the dead ones. Right
    after a {!collect} it is the number of nodes reachable from the
    roots. *)

val peak_live_nodes : t -> int
(** High-water mark of {!live_nodes}, which counts a dead node until a
    collection sweeps it: the peak {e resident} node count, reported by
    the solver and the benchmarks. *)

val max_nodes : int
(** The node store's capacity, 2{^26} ids (constants included): node
    ids fit in 26 bits, so two share a word in the store and in the
    computed cache. Creating a node past it raises
    {!Node_limit_exceeded}, whatever the node limit. *)

val set_node_limit : t -> int option -> unit
(** Set or clear the live-node limit ([Node_limit_exceeded]). Also clears
    the {!limit_failure} record. *)

(** Why the node limit raised {!Node_limit_exceeded}. *)
type limit_failure =
  | Live_set
      (** the manager collected at the limit and the live count was still
          at the limit: the live set itself does not fit *)
  | Deferred
      (** the manager was at the limit but could not collect: inside
          {!with_frozen}, with automatic collection off, or with an
          estimated dead ratio under the threshold *)

val limit_failure : t -> limit_failure option
(** The reason for the last {!Node_limit_exceeded} this manager raised at
    its node limit. [None] when no raise was recorded since the last
    {!set_node_limit}, or when the allocation hook raised last. *)

val set_alloc_hook : t -> (unit -> unit) option -> unit
(** Install (or clear) a callback invoked on every {e fresh} node
    allocation, after the node-limit check and before the node is
    committed, so raising from the hook leaves the manager unchanged.
    Used for deterministic fault injection: a hook that raises
    {!Node_limit_exceeded} at its Nth invocation makes a blow-up
    reproducible at an exact allocation. *)

(** {2 Garbage collection API} *)

(** Root sets: a set groups pinned ids so a whole construction is
    released at once, when the {!with_roots} call that made the set
    ends. *)
module Roots : sig
  type set

  val add : set -> int -> int
  (** [add s id] pins [id] for the lifetime of the set and returns [id]
      (so calls compose: [Roots.add s (O.band m f g)]). *)
end

val protect : t -> int -> unit
(** [protect m id] pins [id] (and thereby everything reachable from it)
    for the manager's lifetime: it adds [id] to a root set that {!create}
    registers and nothing releases. Pinning an id twice is harmless.
    Constants need no pinning and are accepted as no-ops. *)

val with_roots : t -> (Roots.set -> 'a) -> 'a
(** [with_roots m f] runs [f] with a fresh root set, releasing it (and
    unpinning every id it holds) when [f] returns or raises. It is the
    only way to make a root set. *)

val stack_push : t -> int -> unit
(** Pin an intermediate on the internal operand stack. Used by the
    kernel's recursive operations to protect already-computed partial
    results across their remaining recursive calls, and by the image and
    reachability loops for their loop-carried sets; strictly LIFO with
    {!stack_drop}. An exception that unwinds past a push leaves its pin
    behind until {!reset_op_stack}. *)

val stack_drop : t -> int -> unit
(** Pop the [n] most recent operand pins. *)

val reset_op_stack : t -> unit
(** Drop every operand pin. Only sound at a safe point — no BDD operation
    of this manager on the OCaml call stack. The solver runtime calls
    this when (re)attaching to a manager, clearing pins leaked by an
    exception that unwound through an operation. *)

val with_frozen : t -> (unit -> 'a) -> 'a
(** [with_frozen m f] runs [f] with automatic collection disabled (the
    store grows instead; explicit {!collect} raises). Nests. Use around
    code that holds node ids where the collector cannot see them —
    private memo tables, bulk constructions of unpinned collections. *)

val with_scratch_memo : t -> (int Idtbl.t -> 'a) -> 'a
(** [with_scratch_memo m f] runs [f] frozen (see {!with_frozen}) with the
    manager's reusable int memo, emptied first. It is for operations
    that memoize node ids per call, such as {!Ops.rename}: the memo is
    kept between calls, so the call allocates nothing per memoized
    node. The memo is the one running operation's own: [f] must not call
    [with_scratch_memo] on the same manager, which raises
    [Invalid_argument]. *)

val collect : t -> int
(** Run a mark-and-sweep collection now and return the number of nodes
    swept. All unpinned, unreachable nodes are freed; their unique-table
    entries stay behind as stale entries that never match ({!mk}
    rebuilds the table over the live nodes when live and stale entries
    fill 3/4 of it); the computed cache is invalidated; support-memo
    entries for dead ids are dropped. Live ids are never moved. Raises
    [Invalid_argument] inside {!with_frozen}. Timed as the [bdd.gc] span
    when Obs is on. *)

val set_auto_gc : t -> bool -> unit
(** Enable or disable {!mk}-triggered collection (default: disabled —
    see the module docs on why collection is opt-in). Explicit
    {!collect} works either way. *)

val set_gc_threshold : t -> float -> unit
(** Estimated dead ratio (in [0,1]) that a full store must reach before
    {!mk} collects rather than grows. Default 0.25. Raises
    [Invalid_argument] outside [0,1]. *)

val cache_find : t -> int -> int -> int -> int -> int
(** [cache_find m op a b c] looks up the computed cache: the stored result
    (a node id, so [>= 0]) on a hit, [-1] on a miss. The [op] tag, one of
    {!Op}, namespaces operations; [a b c] are node ids (below
    {!max_nodes}, which the store never exceeds) or constants (use 0 for
    unused slots in a way that cannot collide for the same op). *)

val cache_store : t -> int -> int -> int -> int -> int -> unit
(** [cache_store m op a b c r] memoizes a result [r], a node id, under
    operands as for {!cache_find}. The cache is a lossy
    direct-mapped table: entries may be overwritten at any time, which only
    costs recomputation. Every collection invalidates the cache (entries
    carry an epoch that the collection moves on), so a hit can never name
    a swept id. *)

val clear_caches : t -> unit
(** Drop all memoized operation results (never required for correctness). *)

(** {2 Computed-cache recursions}

    The kernel's recursive operations, defined here next to the node
    store and computed cache they use (a same-module call can be inlined;
    under [-opaque] a cross-module one cannot). {!Ops} re-exports each
    under the same name and documents it; use them through {!Ops}. Each
    pins its own intermediates; the caller keeps the operands alive. *)

val bnot : t -> int -> int
val ite : t -> int -> int -> int -> int
val band : t -> int -> int -> int
val bor : t -> int -> int -> int
val exists : t -> int -> int -> int
val and_exists : t -> int -> int -> int -> int
val cofactor_cube : t -> int -> int -> int

(** Operation tags for the shared computed cache. Each distinct recursive
    operation must use a distinct tag below 8. *)
module Op : sig
  val ite : int
  val bnot : int
  val exists : int
  val and_exists : int
  val cofactor_cube : int
end
