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

(* [∃ quantify. ∧ rels]. The schedule's state, indexed by variable:
   - [pending.(v)]: [v] is still to be quantified (in [quantify], not yet
     gone from the accumulator);
   - [occ.(v)]: how many unprocessed conjuncts mention [v] (counted for
     the variables of [quantify] only);
   - [in_acc.(v)]: [v] is in the accumulator's support ([Greedy] only).
   [Greedy] scores a conjunct [2 * dead - fresh]: [dead] counts its
   pending variables that it alone still mentions, [fresh] its variables
   the accumulator does not have yet. The first conjunct with the highest
   score wins. *)
let and_exists_list m ?(order = Greedy) rels ~quantify =
  let n = M.num_vars m in
  let pending = Array.make n false in
  (* variables outside the manager occur in no conjunct: nothing to do *)
  List.iter (fun v -> if v >= 0 && v < n then pending.(v) <- true) quantify;
  let parts = Array.of_list rels in
  (* pin the conjuncts for the whole sweep, and the accumulator above
     them; each step replaces the accumulator's pin, so a dead
     intermediate becomes collectable as soon as the next one supersedes
     it — that rotation is where the GC recovers the image computation's
     peak. Like the kernel's recursions, an exception leaves these pins
     for the next [reset_op_stack]. *)
  Array.iter (M.stack_push m) parts;
  let supports = Array.map (O.support m) parts in
  let used = Array.make (Array.length parts) false in
  let occ = Array.make n 0 in
  Array.iter
    (List.iter (fun v -> if pending.(v) then occ.(v) <- occ.(v) + 1))
    supports;
  let acc = ref M.one in
  M.stack_push m !acc;
  let acc_supp = ref [] in
  let in_acc = Array.make n false in
  let rec score dead fresh = function
    | [] -> (2 * dead) - fresh
    | v :: vs ->
      score
        (if pending.(v) && occ.(v) = 1 then dead + 1 else dead)
        (if in_acc.(v) then fresh else fresh + 1)
        vs
  in
  let pick () =
    match order with
    | Given ->
      let k = ref 0 in
      while used.(!k) do
        incr k
      done;
      !k
    | Greedy ->
      let best = ref (-1) and best_score = ref min_int in
      for k = 0 to Array.length parts - 1 do
        if not used.(k) then begin
          let s = score 0 0 supports.(k) in
          if s > !best_score then begin
            best_score := s;
            best := k
          end
        end
      done;
      !best
  in
  (* the pending variables of [vs] that no unprocessed conjunct mentions;
     each leaves [pending] as it is found, so it is quantified once. A
     pending variable's [occ] reaches 0 only on the step that processes
     its last conjunct, so the step's own support finds every one. *)
  let dying vs =
    List.fold_left
      (fun acc v ->
        if pending.(v) && occ.(v) = 0 then begin
          pending.(v) <- false;
          v :: acc
        end
        else acc)
      [] vs
  in
  let steps = Array.length parts in
  for step = 1 to steps do
    let k = pick () in
    used.(k) <- true;
    List.iter
      (fun v -> if pending.(v) then occ.(v) <- occ.(v) - 1)
      supports.(k);
    let cube = O.cube_of_vars m (dying supports.(k)) in
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
    (* an accumulator's support is asked for once, so it is not memoized;
       with at most one conjunct left the next pick is forced *)
    if order = Greedy && steps - step > 1 then begin
      List.iter (fun v -> in_acc.(v) <- false) !acc_supp;
      acc_supp := M.support_once m !acc;
      List.iter (fun v -> in_acc.(v) <- true) !acc_supp
    end
  done;
  M.stack_drop m (steps + 1);
  !acc
