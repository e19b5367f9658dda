(* Node store with a flat open-addressing unique table and a lossy
   direct-mapped computed cache (the classic CUDD layout): node creation and
   cache probes are the innermost loops of every algorithm in this
   repository, so they avoid boxed keys and GC traffic entirely.

   Dead nodes are reclaimed in place by a mark-and-sweep collector (see
   DESIGN.md, "Garbage collection"): swept slots go onto a free list that
   [mk] consumes before growing the store, so live node ids are never moved
   and id-keyed memo tables (subset-construction P_zeta memo, support memo)
   stay valid across collections. Reachability is defined by explicitly
   pinned roots: registered root sets (one of them, [lifelong], holds the
   [protect] pins for the manager's lifetime) and an internal operand
   stack that the recursive operations at the end of this file use to pin
   intermediate results for the duration of a call. *)

type root_set = { mutable rs_ids : int array; mutable rs_n : int }

type limit_failure = Live_set | Deferred

type t = {
  (* a node's level as a 32-bit integer, 4 bytes per node ([var]) *)
  mutable var_of : Bytes.t;
  (* a node's children packed as [lo lor (hi lsl kid_shift)]; a swept
     slot holds the raw free-list link instead, which may be -1 *)
  mutable kids_of : int array;
  (* [collect]'s mark bytes, one per store slot, kept between
     collections: the sweep clears every mark it finds, so between
     collections only the constants' two bytes are set *)
  mutable mark : Bytes.t;
  mutable n_nodes : int;  (* store top: one past the highest id ever used *)
  (* unique table: open addressing over [u_mask + 1] slots, two to a
     word of [u_slot] (see [u_get]); a slot of 0 is empty. A slot packs
     a node id in bits 0-25 and a 5-bit fingerprint of the hash of the
     (var, low, high) it was inserted under in bits 26-30; a probe reads
     the node's triple only on a fingerprint match. A sweep leaves swept
     ids in place as stale entries: a swept id has level [free_level],
     and a reused one holds the triple it stores now, so a stale entry
     never matches wrongly. [u_used] counts the occupied slots, live and
     stale; when they pass 3/4 of the table, [insert] rebuilds it over
     the live ids. *)
  mutable u_slot : int array;
  mutable u_mask : int;
  mutable u_used : int;
  (* computed cache: direct-mapped, interleaved 2-word entries (see
     [cache_key]), so a probe touches one cache line; a first word of -1
     marks an empty entry. The entries are held in chunks of
     [chunk_words] words (see [grow_cache]); while the cache fits in one
     chunk, that chunk is exactly its size. Grows (emptying itself — it
     is lossy anyway) as the node count does. Invalidated wholesale
     ([invalidate_cache]) by every collection: a cached result may name a
     swept id, and a swept slot may be re-filled with a different node. *)
  mutable cache : int array array;
  mutable c_mask : int;  (* entries - 1 *)
  mutable c_epoch : int;  (* the current epoch, pre-shifted by [epoch_shift] *)
  mutable n_vars : int;
  mutable names : string array;
  mutable node_limit : int option;
  (* why the last [Node_limit_exceeded] was raised; [None] when the
     allocation hook raised it or [set_node_limit] ran since *)
  mutable limit_failure : limit_failure option;
  (* called on every fresh node allocation, before the node is committed;
     raising from the hook leaves the manager unchanged. Used for
     deterministic fault injection (Equation.Runtime). *)
  mutable alloc_hook : (unit -> unit) option;
  (* [support]'s memo; [[]] (never the support of a decision node)
     means absent *)
  support_memo : int list Idtbl.t;
  (* an int memo for one operation at a time ([with_scratch_memo]);
     [memo_busy] while one holds it *)
  scratch_memo : int Idtbl.t;
  mutable memo_busy : bool;
  (* --- garbage collection state --- *)
  mutable n_entries : int;  (* live node count, constants included *)
  mutable peak_live : int;
  mutable free_head : int;  (* free list threaded through [kids_of]; -1 = empty *)
  lifelong : root_set;  (* [protect]'s pins, never released *)
  mutable root_sets : root_set list;  (* [lifelong] included *)
  mutable op_stack : int array;  (* operand pins, LIFO (cf. BuDDy PUSHREF) *)
  mutable op_top : int;
  mutable gc_stack : int array;  (* [collect]'s DFS stack, kept between runs *)
  mutable frozen : int;  (* > 0: allocation may not trigger a collection *)
  mutable window_allocs : int;  (* allocations in the current frozen window *)
  mutable auto_gc : bool;
  mutable gc_threshold : float;  (* estimated dead ratio that justifies a GC *)
  mutable live_after_gc : int;  (* live count right after the last sweep *)
}

exception Node_limit_exceeded

(* Observability cells, registered once at module initialisation. Every
   hot-path update is behind a single [if !Obs.on] branch, so with stats
   disabled the cost is one boolean load per site. Counter names are part
   of the documented snapshot schema (see DESIGN.md, "Observability"). *)
let c_mk = Obs.Counter.make "bdd.mk_calls"
let c_unique_hit = Obs.Counter.make "bdd.unique.hits"
let c_alloc = Obs.Counter.make "bdd.nodes_created"
let c_rehash = Obs.Counter.make "bdd.unique.rehashes"
let c_purge = Obs.Counter.make "bdd.unique.purges"
let c_grow_nodes = Obs.Counter.make "bdd.nodes.grows"
let c_grow_cache = Obs.Counter.make "bdd.cache.grows"
let c_clear = Obs.Counter.make "bdd.cache.clears"
let c_lookup = Obs.Counter.make "bdd.cache.lookups"
let c_hit = Obs.Counter.make "bdd.cache.hits"
let g_peak_resident = Obs.Gauge.make "bdd.peak_resident"
let c_gc_runs = Obs.Counter.make "bdd.gc.runs"
let c_gc_swept = Obs.Counter.make "bdd.gc.nodes_swept"
let c_gc_live_after = Obs.Counter.make "bdd.gc.live_after"
let g_live = Obs.Gauge.make "bdd.live_nodes"
let g_live_max = Obs.Gauge.make "bdd.gc.live_max"
let c_frozen_allocs = Obs.Counter.make "bdd.frozen.allocs"
let g_frozen_window = Obs.Gauge.make "bdd.frozen.window_max"
let g_store_bytes = Obs.Gauge.make "bdd.mem.store_bytes"
let g_unique_bytes = Obs.Gauge.make "bdd.mem.unique_bytes"
let g_cache_bytes = Obs.Gauge.make "bdd.mem.cache_bytes"

(* per-operation cache counters, indexed by the [Op] tag below; the
   unused slots (0, 4 and 6) map to the dummy cell *)
let op_names =
  [| ""; "ite"; "not"; "exists"; ""; "and_exists"; ""; "cofactor_cube" |]

let per_op prefix =
  Array.map
    (fun n -> if n = "" then Obs.Counter.dummy else Obs.Counter.make (prefix ^ n))
    op_names

let c_lookup_op = per_op "bdd.cache.lookups."
let c_hit_op = per_op "bdd.cache.hits."

(* cache probes are tallied here, one store per probe: slot [2 op] counts
   misses and [2 op + 1] hits. The per-op and total lookup/hit counters
   are derived from the tallies whenever Obs reads its counters. *)
let probes = Array.make (2 * Array.length op_names) 0

let () =
  Obs.Counter.on_read (fun () ->
      for op = 1 to Array.length op_names - 1 do
        let hits = probes.((2 * op) + 1) in
        let lookups = probes.(2 * op) + hits in
        Obs.Counter.add c_lookup_op.(op) lookups;
        Obs.Counter.add c_hit_op.(op) hits;
        Obs.Counter.add c_lookup lookups;
        Obs.Counter.add c_hit hits
      done;
      Array.fill probes 0 (Array.length probes) 0)

let zero = 0
let one = 1

(* Levels are stored in 32 bits. [size_mark] (bit 30) is the marking
   walks' flag, so a level stays below it: the constants' level is the
   largest one under it, and variables stop one short of that. *)
let size_mark = 1 lsl 30
let terminal_level = size_mark - 1

(* variable sentinel marking a swept (free-listed) slot; [kids_of] holds
   the next free slot while a slot carries this mark *)
let free_level = -2

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] var m id = Int32.to_int (get32 m.var_of (4 * id))
let[@inline] set_var m id v = set32 m.var_of (4 * id) (Int32.of_int v)

(* [old]'s levels extended to [n] nodes with [terminal_level] *)
let levels old n =
  let b = Bytes.extend old 0 ((4 * n) - Bytes.length old) in
  for id = Bytes.length old / 4 to n - 1 do
    set32 b (4 * id) (Int32.of_int terminal_level)
  done;
  b

(* [n] mark bytes: outside [collect] only the constants are marked *)
let marks n =
  let b = Bytes.make n '\000' in
  Bytes.fill b 0 2 '\001';
  b

let max_cache_bits = 22
let cache_cap = 1 lsl max_cache_bits

(* A cache chunk holds 2^16 words (512 KB). An entry starts at an even
   word and a chunk's length is even, so an entry's two words never
   straddle two chunks. *)
let chunk_bits = 16
let chunk_words = 1 lsl chunk_bits
let chunk_mask = chunk_words - 1

(* Node ids fit in [kid_shift] = 26 bits ([grow_nodes] stops the store
   at [max_nodes]), so two of them share a word: a node's children in
   [kids_of], and the operands of a computed-cache entry. An entry is two
   words: [cache_key] packs [a] in bits 0-25, [b] in bits 26-51, the op
   tag in bits 52-54 and the epoch in the [epoch_bits] above them (bit 62,
   the sign, stays clear, so a key is never the empty mark -1); the
   second word is [c lsl kid_shift lor result]. The epoch field wraps
   every 128 collections, at the cost of one fill of the array; it is
   that narrow so that a test crosses the wrap in well under a second. *)
let kid_shift = 26
let max_nodes = 1 lsl kid_shift
let id_mask = max_nodes - 1
let op_shift = 2 * kid_shift
let epoch_shift = op_shift + 3
let epoch_bits = 7

(* A unique-table slot is [id lor fp_tag h], 31 bits: the id in bits
   0-25 and bits 24-28 of the triple's hash [h] in bits 26-30. Those
   hash bits lie above the slot index bits of any table up to 2^24
   slots, so neighbours in one probe run rarely agree on them. An id is
   at least 2 (the constants are never interned), so an occupied slot is
   never 0. Slot [i] is the half [i land 1] of word [i lsr 1]. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let[@inline] fp_tag h = ((h lsr 24) land 31) lsl kid_shift

let[@inline] u_get a i =
  (a.(i lsr 1) lsr ((i land 1) * slot_bits)) land slot_mask

(* only ever fills an empty slot *)
let[@inline] u_set a i s =
  let w = i lsr 1 in
  a.(w) <- a.(w) lor (s lsl ((i land 1) * slot_bits))

let default_gc_threshold = 0.25

(* the footprint gauges, set at creation and on each growth (a word of
   an [int array] is 8 bytes) *)
let note_footprint m =
  if !Obs.on then begin
    Obs.Gauge.set_max g_store_bytes
      (Bytes.length m.var_of + (8 * Array.length m.kids_of)
     + Bytes.length m.mark);
    Obs.Gauge.set_max g_unique_bytes (8 * Array.length m.u_slot);
    Obs.Gauge.set_max g_cache_bytes (16 * (m.c_mask + 1))
  end

let empty_root_set () = { rs_ids = Array.make 16 0; rs_n = 0 }

(* A cache of [words] words of empty entries. Past one chunk it is made
   of full chunks: those of [old] (emptied), then fresh ones. *)
let cache_chunks old words =
  if words <= chunk_words then [| Array.make words (-1) |]
  else
    Array.init (words / chunk_words) (fun k ->
        if k < Array.length old then begin
          Array.fill old.(k) 0 chunk_words (-1);
          old.(k)
        end
        else Array.make chunk_words (-1))

let create ?(initial_capacity = 1024) () =
  let cap = max initial_capacity 16 in
  (* [n] rounded up to a power of two *)
  let rec pow2 n k = if k >= n then k else pow2 n (2 * k) in
  let usize = pow2 (2 * cap) 16 in
  (* the computed cache starts at one entry per store slot, the ratio
     its growth rule in [insert] keeps *)
  let csize = min cache_cap (pow2 cap 16) in
  let lifelong = empty_root_set () in
  let m =
    {
      var_of = levels Bytes.empty cap;
      kids_of = Array.make cap (-1);
      mark = marks cap;
      n_nodes = 2;
      u_slot = Array.make (usize / 2) 0;
      u_mask = usize - 1;
      u_used = 0;
      cache = cache_chunks [||] (2 * csize);
      c_mask = csize - 1;
      c_epoch = 0;
      n_vars = 0;
      names = [||];
      node_limit = None;
      limit_failure = None;
      alloc_hook = None;
      support_memo = Idtbl.create 16 [];
      scratch_memo = Idtbl.create 16 (-1);
      memo_busy = false;
      n_entries = 2;
      peak_live = 2;
      free_head = -1;
      lifelong;
      root_sets = [ lifelong ];
      op_stack = Array.make 256 0;
      op_top = 0;
      gc_stack = [||];
      frozen = 0;
      window_allocs = 0;
      (* collection is opt-in: it is only sound once every id the client
         holds is pinned or reachable from a pinned root, which the solver
         guarantees (and enables GC) but raw-API users need not *)
      auto_gc = false;
      gc_threshold = default_gc_threshold;
      live_after_gc = 2;
    }
  in
  m.kids_of.(0) <- 0;
  m.kids_of.(1) <- 1 lor (1 lsl kid_shift);
  note_footprint m;
  m

let hash3 v lo hi =
  let h = (v * 0x9e3779b1) lxor (lo * 0x85ebca77) lxor (hi * 0xc2b2ae3d) in
  let h = h lxor (h lsr 15) in
  h land max_int

let[@inline] low m id = m.kids_of.(id) land id_mask
let[@inline] high m id = m.kids_of.(id) lsr kid_shift

(* Every growth below allocates a large array and, but for a cache past
   one chunk, drops the one it replaces; with the kernel's hot path
   allocating next to nothing, the major GC would otherwise get round to
   freeing it late and the resident set would grow. [Gc.major_slice 0]
   pays down that debt right away. *)
let grow_nodes m =
  let cap = Array.length m.kids_of in
  (* [kids_of] and the computed cache hold node ids in 26 bits *)
  if cap >= max_nodes then raise Node_limit_exceeded;
  if !Obs.on then Obs.Counter.bump c_grow_nodes;
  let cap' = if 2 * cap > max_nodes then max_nodes else 2 * cap in
  let kids = Array.make cap' (-1) in
  Array.blit m.kids_of 0 kids 0 cap;
  m.kids_of <- kids;
  m.var_of <- levels m.var_of cap';
  m.mark <- marks cap';
  note_footprint m;
  ignore (Gc.major_slice 0 : int)

(* The cache grows in place: the chunks it has are emptied and fresh
   ones appended, so the old cache is never resident beside the new one
   (a dropped array is freed only when a major GC cycle ends). While the
   cache fits in one chunk, that chunk is replaced instead; sizes are
   powers of two, so a cache that outgrows one chunk is made of full
   ones. The [max_cache_bits] cap is checked by the caller (on the
   allocation path, where paying a call per [mk] just to bounce off the
   cap inside showed up in profiles). *)
let grow_cache m =
  if !Obs.on then Obs.Counter.bump c_grow_cache;
  let size' = 2 * (m.c_mask + 1) in
  m.cache <- cache_chunks m.cache (2 * size');
  m.c_mask <- size' - 1;
  note_footprint m;
  ignore (Gc.major_slice 0 : int)

(* Rebuild the unique table at [size] slots (a power of two) over the
   store's live ids, in id order: a growth when [size] is larger, a purge
   of the stale entries when it is the same. *)
let rebuild_unique m size =
  let grown = size > m.u_mask + 1 in
  if !Obs.on then Obs.Counter.bump (if grown then c_rehash else c_purge);
  if grown then m.u_slot <- Array.make (size / 2) 0
  else Array.fill m.u_slot 0 (size / 2) 0;
  let mask = size - 1 in
  m.u_mask <- mask;
  let used = ref 0 in
  for id = 2 to m.n_nodes - 1 do
    let v = var m id in
    if v <> free_level then begin
      let h = hash3 v (low m id) (high m id) in
      let i = ref (h land mask) in
      while u_get m.u_slot !i <> 0 do
        i := (!i + 1) land mask
      done;
      u_set m.u_slot !i (id lor fp_tag h);
      incr used
    end
  done;
  m.u_used <- !used;
  if grown then begin
    note_footprint m;
    ignore (Gc.major_slice 0 : int)
  end

let live_nodes m = m.n_entries
let peak_live_nodes m = m.peak_live
let set_node_limit m lim =
  m.node_limit <- lim;
  m.limit_failure <- None

let limit_failure m = m.limit_failure
let set_alloc_hook m hook = m.alloc_hook <- hook

(* --- root pinning ------------------------------------------------------- *)

module Roots = struct
  type set = root_set

  let create m =
    let s = empty_root_set () in
    m.root_sets <- s :: m.root_sets;
    s

  let add s id =
    if id >= 2 then begin
      if s.rs_n = Array.length s.rs_ids then begin
        let a = Array.make (2 * s.rs_n) 0 in
        Array.blit s.rs_ids 0 a 0 s.rs_n;
        s.rs_ids <- a
      end;
      s.rs_ids.(s.rs_n) <- id;
      s.rs_n <- s.rs_n + 1
    end;
    id

  let release m s = m.root_sets <- List.filter (fun s' -> s' != s) m.root_sets
end

let with_roots m f =
  let s = Roots.create m in
  Fun.protect ~finally:(fun () -> Roots.release m s) (fun () -> f s)

let protect m id = ignore (Roots.add m.lifelong id : int)

(* operand stack: recursive operations pin already-computed intermediates
   here across their remaining recursive calls; [mk] pins its own operands
   before triggering a collection, so a pushed id can never be swept while
   an operation still holds it in an OCaml local *)
let stack_push m id =
  if m.op_top = Array.length m.op_stack then begin
    let a = Array.make (2 * m.op_top) 0 in
    Array.blit m.op_stack 0 a 0 m.op_top;
    m.op_stack <- a
  end;
  m.op_stack.(m.op_top) <- id;
  m.op_top <- m.op_top + 1

(* an int test, not the polymorphic [max] (a C call without flambda) *)
let stack_drop m n =
  let top = m.op_top - n in
  m.op_top <- (if top > 0 then top else 0)

(* called at ladder safe points (Runtime.attach): an exception that unwound
   through an operation leaves its pins behind, harmlessly conservative
   until the next attempt starts *)
let reset_op_stack m = m.op_top <- 0

let with_frozen m f =
  if m.frozen = 0 then m.window_allocs <- 0;
  m.frozen <- m.frozen + 1;
  Fun.protect ~finally:(fun () -> m.frozen <- m.frozen - 1) f

let leave_scratch m =
  m.frozen <- m.frozen - 1;
  m.memo_busy <- false

(* no closure for [Fun.protect]: a rename runs this on every call *)
let with_scratch_memo m f =
  if m.memo_busy then invalid_arg "Manager.with_scratch_memo: already in use";
  Idtbl.clear m.scratch_memo;
  m.memo_busy <- true;
  if m.frozen = 0 then m.window_allocs <- 0;
  m.frozen <- m.frozen + 1;
  match f m.scratch_memo with
  | r ->
    leave_scratch m;
    r
  | exception e ->
    leave_scratch m;
    raise e

let set_auto_gc m b = m.auto_gc <- b

let set_gc_threshold m r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg "Manager.set_gc_threshold: ratio outside [0,1]";
  m.gc_threshold <- r

(* Every entry stored before this call stops matching, since probes
   carry the new epoch. The array itself is only emptied when the epoch
   field wraps and an old epoch could come round again. *)
let invalidate_cache m =
  let e = m.c_epoch + (1 lsl epoch_shift) in
  if e lsr epoch_shift = 1 lsl epoch_bits then begin
    Array.iter (fun t -> Array.fill t 0 (Array.length t) (-1)) m.cache;
    m.c_epoch <- 0
  end
  else m.c_epoch <- e

(* --- mark and sweep ----------------------------------------------------- *)

let collect m =
  if m.frozen > 0 then invalid_arg "Manager.collect: manager is frozen";
  let span = Obs.Span.enter "bdd.gc" in
  let top = m.n_nodes in
  let mark = m.mark in
  (* iterative DFS from every pinned root; the depth of a BDD is bounded by
     the variable count but sibling chains are not, so use an explicit
     stack rather than recursion. The manager keeps it between
     collections. *)
  let sp = ref 0 in
  let push id =
    if !sp = Array.length m.gc_stack then begin
      let a = Array.make (max 64 (2 * !sp)) 0 in
      Array.blit m.gc_stack 0 a 0 !sp;
      m.gc_stack <- a
    end;
    m.gc_stack.(!sp) <- id;
    incr sp
  in
  let visit root =
    if root >= 2 && root < top && var m root <> free_level then begin
      push root;
      while !sp > 0 do
        decr sp;
        let id = m.gc_stack.(!sp) in
        if Bytes.get mark id = '\000' then begin
          Bytes.set mark id '\001';
          let lo = low m id and hi = high m id in
          if Bytes.get mark lo = '\000' then push lo;
          if Bytes.get mark hi = '\000' then push hi
        end
      done
    end
  in
  List.iter
    (fun s ->
      for i = 0 to s.rs_n - 1 do
        visit s.rs_ids.(i)
      done)
    m.root_sets;
  for i = 0 to m.op_top - 1 do
    visit m.op_stack.(i)
  done;
  (* sweep: thread dead slots onto the free list (downwards, so the lowest
     dead id is reused first — deterministic and store-compacting in
     tendency even without moving live nodes), and clear the marks *)
  let swept = ref 0 in
  m.free_head <- -1;
  for id = top - 1 downto 2 do
    let v = var m id in
    if v = free_level || Bytes.get mark id = '\000' then begin
      if v <> free_level then incr swept;
      set_var m id free_level;
      m.kids_of.(id) <- m.free_head;
      m.free_head <- id
    end
    else Bytes.set mark id '\000'
  done;
  m.n_entries <- m.n_entries - !swept;
  m.live_after_gc <- m.n_entries;
  (* the unique table keeps the swept ids as stale entries (see [t]); a
     cached result may name a dead id: invalidate every entry *)
  invalidate_cache m;
  (* the support memo is keyed by node id: entries for swept ids would be
     resurrected wrongly when the id is reused *)
  Idtbl.filter_inplace m.support_memo (fun id _ ->
      id < 2 || (id < top && var m id <> free_level));
  if !Obs.on then begin
    Obs.Counter.bump c_gc_runs;
    Obs.Counter.add c_gc_swept !swept;
    Obs.Counter.add c_gc_live_after m.n_entries;
    Obs.Gauge.set g_live m.n_entries;
    Obs.Gauge.set_max g_live_max m.n_entries;
    Obs.Trace.point "bdd.gc"
      ~detail:(Printf.sprintf "swept=%d live=%d" !swept m.n_entries)
  end;
  Obs.Span.exit span;
  !swept

(* estimated dead ratio: every allocation since the last sweep is treated
   as potentially dead. Deterministic — it depends only on allocation
   counts, never on wall time or the OCaml heap. *)
let est_dead_ratio m =
  if m.n_entries <= 0 then 0.0
  else
    float_of_int (m.n_entries - m.live_after_gc) /. float_of_int m.n_entries

let may_collect m =
  m.auto_gc && m.frozen = 0 && est_dead_ratio m >= m.gc_threshold

(* a collection under [mk]: pin its operands first — the caller cannot
   know a collection happens under this particular [mk] *)
let collect_pinned m lo hi =
  stack_push m lo;
  stack_push m hi;
  let swept = collect m in
  stack_drop m 2;
  swept

(* [mk]'s miss path, out of line so the probe loop stays small. [slot] is
   the empty unique-table slot the probe ended on and [tag] the triple's
   fingerprint; a collection leaves the table alone, so the slot is still
   empty after one. *)
let[@inline never] insert m v lo hi tag slot =
  (* the node budget bounds *live* nodes: when the entry count hits the
     limit, reclaim dead entries first and only fail if the live set
     itself does not fit. [est_dead_ratio] drops to 0 right after a
     collection, so a saturated live set cannot thrash here. *)
  (match m.node_limit with
   | Some lim when m.n_entries >= lim ->
     if not (may_collect m) then begin
       m.limit_failure <- Some Deferred;
       raise Node_limit_exceeded
     end;
     ignore (collect_pinned m lo hi : int);
     if m.n_entries >= lim then begin
       m.limit_failure <- Some Live_set;
       raise Node_limit_exceeded
     end
   | Some _ | None -> ());
  (match m.alloc_hook with
   | Some f -> (
     try f ()
     with e ->
       m.limit_failure <- None;
       raise e)
   | None -> ());
  if m.free_head < 0 && m.n_nodes >= Array.length m.kids_of then begin
    if may_collect m then begin
      let swept = collect_pinned m lo hi in
      (* anti-thrash: a collection that reclaimed under 1/8 of the
         store would have us collecting again almost immediately *)
      if swept < Array.length m.kids_of / 8 then grow_nodes m
    end
    else grow_nodes m
  end;
  let id =
    if m.free_head >= 0 then begin
      let id = m.free_head in
      m.free_head <- m.kids_of.(id);
      id
    end
    else begin
      let id = m.n_nodes in
      m.n_nodes <- id + 1;
      id
    end
  in
  m.n_entries <- m.n_entries + 1;
  if m.n_entries > m.peak_live then m.peak_live <- m.n_entries;
  if !Obs.on then begin
    Obs.Counter.bump c_alloc;
    Obs.Gauge.set_max g_peak_resident m.n_entries;
    Obs.Gauge.set g_live m.n_entries;
    if m.frozen > 0 then begin
      Obs.Counter.bump c_frozen_allocs;
      m.window_allocs <- m.window_allocs + 1;
      Obs.Gauge.set_max g_frozen_window m.window_allocs
    end
  end;
  set_var m id v;
  m.kids_of.(id) <- lo lor (hi lsl kid_shift);
  u_set m.u_slot slot (id lor tag);
  m.u_used <- m.u_used + 1;
  (* keep the live load factor at most 1/2 by doubling, and the occupied
     one (live plus stale) at most 3/4 by purging the stale entries *)
  let size = m.u_mask + 1 in
  if 2 * m.n_entries > size then rebuild_unique m (2 * size)
  else if 4 * m.u_used > 3 * size then rebuild_unique m size;
  (* keep the (lossy) computed cache proportional to the live count;
     the [max_cache_bits] cap is checked here, not in [grow_cache] *)
  if m.n_entries > m.c_mask && m.c_mask + 1 < cache_cap then grow_cache m;
  id

let mk m v lo hi =
  if lo = hi then lo
  else begin
    if !Obs.on then Obs.Counter.bump c_mk;
    let h = hash3 v lo hi in
    let tag = fp_tag h in
    let kids = lo lor (hi lsl kid_shift) in
    let mask = m.u_mask in
    let i = ref (h land mask) in
    let w = ref (u_get m.u_slot !i) in
    (* [w lxor tag < 1 lsl kid_shift]: the fingerprints agree *)
    while
      !w <> 0
      && not
           (!w lxor tag < 1 lsl kid_shift
           &&
           let id = !w land id_mask in
           var m id = v && m.kids_of.(id) = kids)
    do
      i := (!i + 1) land mask;
      w := u_get m.u_slot !i
    done;
    if !w <> 0 then begin
      if !Obs.on then Obs.Counter.bump c_unique_hit;
      !w land id_mask
    end
    else insert m v lo hi tag !i
  end

(* [dag_size] marks a node by setting bit 30 of its level ([size_mark];
   levels are below it) and unmarks in a second walk: no visited table,
   no allocation. Both walks recurse lo-first, at most one level per
   variable deep. *)
let rec size_walk m id n =
  if id < 2 || var m id >= size_mark then n
  else begin
    set_var m id (var m id lor size_mark);
    size_walk m (high m id) (size_walk m (low m id) (n + 1))
  end

let rec size_unmark m id =
  if id >= 2 && var m id >= size_mark then begin
    set_var m id (var m id lxor size_mark);
    size_unmark m (low m id);
    size_unmark m (high m id)
  end

let dag_size m roots =
  let n = List.fold_left (fun n r -> size_walk m r n) 0 roots in
  List.iter (size_unmark m) roots;
  n

(* [support_mark] marks nodes the way [dag_size] does and records each
   level it meets in the caller's byte map, then unmarks with
   [size_unmark]. [support] gives it a fresh map on a memo miss. *)
let rec support_walk m seen id =
  if id >= 2 && var m id < size_mark then begin
    let v = var m id in
    Bytes.set seen v '\001';
    set_var m id (v lor size_mark);
    support_walk m seen (low m id);
    support_walk m seen (high m id)
  end

let support_mark m f seen =
  support_walk m seen f;
  size_unmark m f

let support m f =
  match Idtbl.find m.support_memo f with
  | [] when f >= 2 ->
    let seen = Bytes.make m.n_vars '\000' in
    support_mark m f seen;
    let vars = ref [] in
    for v = m.n_vars - 1 downto 0 do
      if Bytes.get seen v <> '\000' then vars := v :: !vars
    done;
    Idtbl.replace m.support_memo f !vars;
    !vars
  | vars -> vars

let is_const id = id < 2
let num_vars m = m.n_vars

let new_var ?name m =
  let v = m.n_vars in
  if v >= terminal_level then invalid_arg "Manager.new_var: too many variables";
  m.n_vars <- v + 1;
  (* grow geometrically: the old per-variable copy made registering n
     variables O(n^2) *)
  if v >= Array.length m.names then begin
    let cap' = max 16 (2 * Array.length m.names) in
    let names = Array.make cap' "" in
    Array.blit m.names 0 names 0 v;
    m.names <- names
  end;
  m.names.(v) <-
    (match name with Some s -> s | None -> Printf.sprintf "x%d" v);
  v

let new_vars ?(prefix = "x") m n =
  List.init n (fun k -> new_var ~name:(Printf.sprintf "%s%d" prefix k) m)

let var_name m v =
  if v >= 0 && v < m.n_vars then m.names.(v) else Printf.sprintf "?%d" v

(* inlined into the recursions at the end of this file, so a cache probe
   or store costs no call *)
let[@inline] cache_slot m op a b c =
  let h =
    (op * 0x27d4eb2f)
    lxor (a * 0x9e3779b1)
    lxor (b * 0x85ebca77)
    lxor (c * 0xc2b2ae3d)
  in
  let h = h lxor (h lsr 13) in
  h land m.c_mask

let[@inline] cache_key m op a b =
  m.c_epoch lor (op lsl op_shift) lor (b lsl kid_shift) lor a

(* entry [s]'s chunk is [m.cache.(s lsr chunk_bits)], and its first word
   is at [s land chunk_mask] there *)
let[@inline] cache_find m op a b c =
  let s = 2 * cache_slot m op a b c in
  let t = m.cache.(s lsr chunk_bits) and s = s land chunk_mask in
  let r = t.(s + 1) in
  let hit = t.(s) = cache_key m op a b && r lsr kid_shift = c in
  if !Obs.on then begin
    let i = (2 * op) + Bool.to_int hit in
    probes.(i) <- probes.(i) + 1
  end;
  if hit then r land id_mask else -1

let[@inline] cache_store m op a b c r =
  let s = 2 * cache_slot m op a b c in
  let t = m.cache.(s lsr chunk_bits) and s = s land chunk_mask in
  t.(s) <- cache_key m op a b;
  t.(s + 1) <- (c lsl kid_shift) lor r

let clear_caches m =
  if !Obs.on then begin
    Obs.Counter.bump c_clear;
    Obs.Trace.point "bdd.cache.clear"
  end;
  invalidate_cache m;
  Idtbl.clear m.support_memo

(* Tags 4 and 6 are unused. The tag feeds the cache hash, so the others
   keep their numbers: renumbering them would move lossy-cache evictions
   and with them the node stream. *)
module Op = struct
  let ite = 1
  let bnot = 2
  let exists = 3
  let and_exists = 5
  let cofactor_cube = 7
end

(* --- the computed-cache recursions -------------------------------------- *)

(* The kernel's recursive operations live here, in the module that owns
   the node store, unique table, computed cache and operand stack, so
   their [var]/[low]/[high]/[mk]/[cache_find]/[cache_store]/[stack_push]
   calls are same-module calls the native compiler can inline. Under
   dune's dev profile, which compiles with -opaque, the same calls made
   from another module are full calls of unknown arity. [Ops] re-exports
   these and builds the derived operations on them.

   GC discipline: the caller keeps the operands alive (pinned directly or
   reachable from a pinned root), and each operation pins every
   already-computed intermediate on the operand stack before making
   further recursive calls, so a collection triggered by an inner [mk]
   can never sweep a partial result held only in an OCaml local. [mk]
   pins its own two arguments, so results that flow straight into an
   enclosing [mk] need no extra pin. A node an operation keys cache
   entries on is pinned for the same reason.

   The recursions allocate nothing of their own: cache probes return -1
   on a miss instead of an option, cofactors are taken inline rather
   than as tuples, and levels are compared with the int-typed [imin]
   (the polymorphic [min] is a C call without flambda). *)

let imin (a : int) b = if a <= b then a else b

let rec bnot m f =
  if f = zero then one
  else if f = one then zero
  else
    let r = cache_find m Op.bnot f 0 0 in
    if r >= 0 then r
    else begin
      let lo = bnot m (low m f) in
      stack_push m lo;
      let hi = bnot m (high m f) in
      stack_drop m 1;
      let r = mk m (var m f) lo hi in
      cache_store m Op.bnot f 0 0 r;
      r
    end

(* AND and OR as two-operand recursions on ite's cache entries:
   [band f g] = ite(f, g, 0) under the key (a, b, 0) and [bor f g] =
   ite(f, 1, g) under (a, 1, b), where a is the smaller id, so both
   operand orders share one entry and [ite] reaches the same entries.
   Each makes the probes and [mk] calls that [ite_triple] makes on that
   triple, without reading a third operand. *)
let rec band m f g =
  if f = g || g = one then f
  else if f = one then g
  else if f = zero || g = zero then zero
  else begin
    let a = imin f g and b = if f <= g then g else f in
    let r = cache_find m Op.ite a b zero in
    if r >= 0 then r
    else begin
      let va = var m a and vb = var m b in
      let v = imin va vb in
      let lo =
        band m (if va = v then low m a else a) (if vb = v then low m b else b)
      in
      stack_push m lo;
      let hi =
        band m (if va = v then high m a else a)
          (if vb = v then high m b else b)
      in
      stack_drop m 1;
      let r = mk m v lo hi in
      cache_store m Op.ite a b zero r;
      r
    end
  end

let rec bor m f g =
  if f = g || g = zero then f
  else if f = zero then g
  else if f = one || g = one then one
  else begin
    let a = imin f g and b = if f <= g then g else f in
    let r = cache_find m Op.ite a one b in
    if r >= 0 then r
    else begin
      let va = var m a and vb = var m b in
      let v = imin va vb in
      let lo =
        bor m (if va = v then low m a else a) (if vb = v then low m b else b)
      in
      stack_push m lo;
      let hi =
        bor m (if va = v then high m a else a)
          (if vb = v then high m b else b)
      in
      stack_drop m 1;
      let r = mk m v lo hi in
      cache_store m Op.ite a one b r;
      r
    end
  end

(* [ite] first rewrites to the standard triple (Brace, Rudell and Bryant,
   DAC 1990): ite(f,f,h) = ite(f,1,h) and ite(f,g,f) = ite(f,g,0). It
   hands AND (h = 0) and OR (g = 1) to [band] and [bor]. *)
let rec ite m f g h =
  let g = if g = f then one else g in
  let h = if h = f then zero else h in
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if h = zero then band m f g
  else if g = one then bor m f h
  else ite_triple m f g h

and ite_triple m f g h =
  let r = cache_find m Op.ite f g h in
  if r >= 0 then r
  else begin
    let vf = var m f and vg = var m g and vh = var m h in
    let v = imin vf (imin vg vh) in
    let lo =
      ite m
        (if vf = v then low m f else f)
        (if vg = v then low m g else g)
        (if vh = v then low m h else h)
    in
    stack_push m lo;
    let hi =
      ite m
        (if vf = v then high m f else f)
        (if vg = v then high m g else g)
        (if vh = v then high m h else h)
    in
    stack_drop m 1;
    let r = mk m v lo hi in
    cache_store m Op.ite f g h r;
    r
  end

(* Skip the quantified variables of [cube] above level [top]. *)
let rec skip_above m cube top =
  if cube <> one && var m cube < top then skip_above m (high m cube) top
  else cube

let rec exists m cube f =
  if is_const f || cube = one then f
  else begin
    let v = var m f in
    let cube = skip_above m cube v in
    if cube = one then f
    else
      let r = cache_find m Op.exists f cube 0 in
      if r >= 0 then r
      else begin
        let cv = var m cube in
        let r =
          if cv = v then begin
            let cube' = high m cube in
            let lo = exists m cube' (low m f) in
            if lo = one then one
            else begin
              stack_push m lo;
              let hi = exists m cube' (high m f) in
              stack_push m hi;
              let r = bor m lo hi in
              stack_drop m 2;
              r
            end
          end
          else begin
            let lo = exists m cube (low m f) in
            stack_push m lo;
            let hi = exists m cube (high m f) in
            stack_drop m 1;
            mk m v lo hi
          end
        in
        cache_store m Op.exists f cube 0 r;
        r
      end
  end

let rec and_exists m cube f g =
  if f = zero || g = zero then zero
  else if f = one && g = one then one
  else if f = one then exists m cube g
  else if g = one then exists m cube f
  else if f = g then exists m cube f
  else if cube = one then band m f g
  else begin
    let top = imin (var m f) (var m g) in
    let cube = skip_above m cube top in
    if cube = one then band m f g
    else
      (* Normalize operand order: ∧ commutes, so cache both orders once. *)
      let a = imin f g and b = if f <= g then g else f in
      let r = cache_find m Op.and_exists a b cube in
      if r >= 0 then r
      else begin
        let a_top = var m a = top and b_top = var m b = top in
        (* quantify [top] away (merge the cofactors with ∨) or keep it *)
        let quantify = var m cube = top in
        let cube' = if quantify then high m cube else cube in
        let lo =
          and_exists m cube'
            (if a_top then low m a else a)
            (if b_top then low m b else b)
        in
        let r =
          if quantify && lo = one then one
          else begin
            stack_push m lo;
            let hi =
              and_exists m cube'
                (if a_top then high m a else a)
                (if b_top then high m b else b)
            in
            if quantify then begin
              stack_push m hi;
              let r = bor m lo hi in
              stack_drop m 2;
              r
            end
            else begin
              stack_drop m 1;
              mk m top lo hi
            end
          end
        in
        cache_store m Op.and_exists a b cube r;
        r
      end
  end

let rec cofactor_cube m f cube =
  if cube = one || is_const f then f
  else begin
    let cv = var m cube in
    let next_cube, branch_high =
      if high m cube = zero then (low m cube, false)
      else (high m cube, true)
    in
    let fv = var m f in
    if cv < fv then cofactor_cube m f next_cube
    else if cv = fv then
      cofactor_cube m (if branch_high then high m f else low m f) next_cube
    else
      let r = cache_find m Op.cofactor_cube f cube 1 in
      if r >= 0 then r
      else begin
        let lo = cofactor_cube m (low m f) cube in
        stack_push m lo;
        let hi = cofactor_cube m (high m f) cube in
        stack_drop m 1;
        let r = mk m fv lo hi in
        cache_store m Op.cofactor_cube f cube 1 r;
        r
      end
  end
