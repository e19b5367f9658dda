(* Conjoin-and-quantify, the core of the partitioned image (paper §3.2):
   [∃ Q. r₁ ∧ … ∧ rₖ] is built one conjunct at a time, and each variable
   of [Q] is quantified in the step after which no unprocessed conjunct
   mentions it, so the monolithic product never exists. Every step is one
   [and_exists] call. The scheduling around it reads only supports and
   keeps its state in arrays indexed by variable: it creates no BDD node
   and costs a few array reads per support variable. *)

module M = Bdd.Manager
module O = Bdd.Ops

type order = Given | Greedy

let c_conj = Obs.Counter.make "image.conjunctions"
let g_peak_intermediate = Obs.Gauge.make "image.peak_intermediate"

(* The schedule's state, in process-global buffers that every call
   reuses (a call never nests into another: its BDD work is kernel
   recursions; like Obs, they assume one domain). Indexed by variable:
   - [pending]: [v] is still to be quantified (in [quantify], not yet
     gone from the accumulator);
   - [occ.(v)]: how many unprocessed conjuncts mention [v] (counted for
     the variables of [quantify] only);
   - [in_acc]: [v] is in the accumulator's support ([Greedy] only).
   Indexed by conjunct:
   - [parts.(k)] and [supports.(k)]: the conjunct and its support;
   - [used]: the conjunct has been conjoined.
   A call clears (or overwrites) the prefix it uses on entry and reads
   nothing past it, so a call that raised leaves nothing behind. *)
type buffers = {
  mutable occ : int array;
  mutable pending : Bytes.t;
  mutable in_acc : Bytes.t;
  mutable parts : int array;
  mutable supports : int list array;
  mutable used : Bytes.t;
}

let buf =
  { occ = [||];
    pending = Bytes.empty;
    in_acc = Bytes.empty;
    parts = [||];
    supports = [||];
    used = Bytes.empty }

let reset_buffers n =
  if Array.length buf.occ < n then begin
    let cap = max n (2 * Array.length buf.occ) in
    buf.occ <- Array.make cap 0;
    buf.pending <- Bytes.make cap '\000';
    buf.in_acc <- Bytes.make cap '\000'
  end
  else begin
    Array.fill buf.occ 0 n 0;
    Bytes.fill buf.pending 0 n '\000';
    Bytes.fill buf.in_acc 0 n '\000'
  end

let reset_steps steps =
  if Array.length buf.parts < steps then begin
    let cap = max steps (2 * Array.length buf.parts) in
    buf.parts <- Array.make cap 0;
    buf.supports <- Array.make cap [];
    buf.used <- Bytes.make cap '\000'
  end
  else Bytes.fill buf.used 0 steps '\000'

let is_set b v = Bytes.unsafe_get b v <> '\000'

(* The steps below are top-level functions over [buf] rather than
   closures: a small image would allocate more for its closures than for
   its schedule. *)

(* variables outside the manager occur in no conjunct: nothing to do *)
let rec mark_pending n = function
  | [] -> ()
  | v :: vs ->
    if v >= 0 && v < n then Bytes.unsafe_set buf.pending v '\001';
    mark_pending n vs

(* add [d] to [occ] of the pending variables of a support *)
let rec count_occ d = function
  | [] -> ()
  | v :: vs ->
    if is_set buf.pending v then buf.occ.(v) <- buf.occ.(v) + d;
    count_occ d vs

(* [Greedy] scores a conjunct [2 * dead - fresh]: [dead] counts its
   pending variables that it alone still mentions, [fresh] its variables
   the accumulator does not have yet *)
let rec score dead fresh = function
  | [] -> (2 * dead) - fresh
  | v :: vs ->
    score
      (if is_set buf.pending v && buf.occ.(v) = 1 then dead + 1 else dead)
      (if is_set buf.in_acc v then fresh else fresh + 1)
      vs

(* the next of the [steps] conjuncts: the first unused one ([Given]), or
   the first with the highest score ([Greedy]) *)
let pick order steps =
  match order with
  | Given ->
    let k = ref 0 in
    while is_set buf.used !k do
      incr k
    done;
    !k
  | Greedy ->
    let best = ref (-1) and best_score = ref min_int in
    for k = 0 to steps - 1 do
      if not (is_set buf.used k) then begin
        let s = score 0 0 buf.supports.(k) in
        if s > !best_score then begin
          best_score := s;
          best := k
        end
      end
    done;
    !best

(* the cube of the pending variables of [vs] (ascending) that no
   unprocessed conjunct mentions, built from the last one up as
   [cube_of_vars] does; each leaves [pending] as it is found, so it is
   quantified once. A pending variable's [occ] reaches 0 only on the
   step that processes its last conjunct, so the step's own support
   finds every one. *)
let rec dying_cube m = function
  | [] -> M.one
  | v :: vs ->
    let cube = dying_cube m vs in
    if is_set buf.pending v && buf.occ.(v) = 0 then begin
      Bytes.unsafe_set buf.pending v '\000';
      M.mk m v M.zero cube
    end
    else cube

(* [∃ quantify. ∧ rels] *)
let and_exists_list m ?(order = Greedy) rels ~quantify =
  let n = M.num_vars m in
  reset_buffers n;
  mark_pending n quantify;
  let steps = List.length rels in
  reset_steps steps;
  let parts = buf.parts and supports = buf.supports in
  List.iteri (fun k r -> parts.(k) <- r) rels;
  (* pin the conjuncts for the whole sweep, and the accumulator above
     them; each step replaces the accumulator's pin, so a dead
     intermediate becomes collectable as soon as the next one supersedes
     it — that rotation is where the GC recovers the image computation's
     peak. Like the kernel's recursions, an exception leaves these pins
     for the next [reset_op_stack]. *)
  for k = 0 to steps - 1 do
    M.stack_push m parts.(k);
    supports.(k) <- O.support m parts.(k);
    count_occ 1 supports.(k)
  done;
  let acc = ref M.one in
  M.stack_push m !acc;
  for step = 1 to steps do
    let k = pick order steps in
    Bytes.unsafe_set buf.used k '\001';
    count_occ (-1) supports.(k);
    let cube = dying_cube m supports.(k) in
    M.stack_push m cube;
    let acc' = O.and_exists m cube !acc parts.(k) in
    (* the cube and the old accumulator go, the new one is pinned: no
       allocation in between *)
    M.stack_drop m 2;
    M.stack_push m acc';
    acc := acc';
    if !Obs.on then begin
      Obs.Counter.bump c_conj;
      Obs.Gauge.set_max g_peak_intermediate (O.size m !acc)
    end;
    (* an accumulator's support is asked for once, so it is marked into
       [in_acc] rather than memoized; with at most one conjunct left the
       next pick is forced *)
    if order = Greedy && steps - step > 1 then begin
      Bytes.fill buf.in_acc 0 n '\000';
      M.support_mark m !acc buf.in_acc
    end
  done;
  M.stack_drop m (steps + 1);
  !acc
