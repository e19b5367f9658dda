module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

let c_deletions = Obs.Counter.make "csf.worklist_deletions"

(* The greatest fixpoint both the CSF and the Moore extraction compute: a
   worklist over [x]'s states. The reverse-arc index is built once; every
   alive state is examined once, and a deletion re-enqueues only the
   deleted state's predecessors (the only states whose test it can
   change). Each arc is therefore re-traversed at most once per deletion
   of its destination — O(arcs + deletions × max-in-degree-neighbourhood)
   where a sweep to a fixpoint costs O(passes × states × arcs). [d] is
   built by [bor] in edge order from [zero] and held in OCaml locals
   across allocation: the caller runs [prune] frozen. *)
let prune ?(tick = fun () -> ()) (x : A.t) alive keep =
  let man = x.A.man in
  let n = A.num_states x in
  (* the reverse adjacency in CSR form, built once, before any deletion:
     the predecessors of [d] are [rev_src.(rev_off.(d))] to
     [rev_src.(rev_off.(d + 1) - 1)], by ascending source and then by edge
     position *)
  let rev_off = Array.make (n + 1) 0 in
  Array.iter
    (List.iter (fun (_, d) -> rev_off.(d + 1) <- rev_off.(d + 1) + 1))
    x.A.edges;
  for d = 1 to n do
    rev_off.(d) <- rev_off.(d) + rev_off.(d - 1)
  done;
  let rev_src = Array.make rev_off.(n) 0 in
  let rev_fill = Array.sub rev_off 0 n in
  Array.iteri
    (fun s ->
      List.iter (fun (_, d) ->
          rev_src.(rev_fill.(d)) <- s;
          rev_fill.(d) <- rev_fill.(d) + 1))
    x.A.edges;
  let queued = Array.make n false in
  let queue = Queue.create () in
  let push s =
    if alive.(s) && not queued.(s) then begin
      queued.(s) <- true;
      Queue.add s queue
    end
  in
  for s = 0 to n - 1 do
    push s
  done;
  while not (Queue.is_empty queue) do
    tick ();
    let s = Queue.pop queue in
    queued.(s) <- false;
    (* a queued state is alive: only the popped state is ever deleted *)
    let d =
      List.fold_left
        (fun d (g, dst) -> if alive.(dst) then O.bor man d g else d)
        M.zero x.A.edges.(s)
    in
    if not (keep s d) then begin
      alive.(s) <- false;
      for j = rev_off.(s) to rev_off.(s + 1) - 1 do
        push rev_src.(j)
      done
    end
  done

(* PrefixClose seeds the alive set with the accepting states; Progressive
   deletes states that are not input-progressive over the [u] variables
   with respect to the current alive set. The alive states reachable
   through alive states are cut out of the solution by one
   [Fsa.Ops.restrict], which keeps the engine's guards (already protected)
   and relative state order. *)
let of_arena ?runtime (p : Problem.t) (x : A.t) =
  Option.iter (fun rt -> Runtime.enter_phase rt Runtime.Csf) runtime;
  let man = x.A.man in
  let deletions = ref 0 in
  let inputs = Problem.x_input_vars p in
  (* the worklist holds guard disjunctions only transiently but walks ids
     while allocating; run frozen *)
  M.with_frozen man @@ fun () ->
  let outputs = List.filter (fun v -> not (List.mem v inputs)) x.A.alphabet in
  let out_cube = O.cube_of_vars man outputs in
  (* prefix closure: only accepting states can survive *)
  let alive = Array.copy x.A.accepting in
  (* a state is progressive when for every input assignment some output
     leads to an alive state *)
  prune ~tick:(Runtime.ticker runtime) x alive (fun _ d ->
      let progressive = O.exists man out_cube d = M.one in
      if not progressive then begin
        incr deletions;
        if !Obs.on then Obs.Counter.bump c_deletions
      end;
      progressive);
  if not alive.(x.A.initial) then (A.empty man ~alphabet:x.A.alphabet, !deletions)
  else begin
    (* the states reachable from the initial one through alive states:
       one [restrict] to them numbers the survivors as [trim (restrict x
       alive)] does *)
    let keep = Array.make (A.num_states x) false in
    let rec visit s =
      if alive.(s) && not keep.(s) then begin
        keep.(s) <- true;
        visit_arcs x.A.edges.(s)
      end
    and visit_arcs = function
      | [] -> ()
      | (_, d) :: rest ->
        visit d;
        visit_arcs rest
    in
    visit x.A.initial;
    (Fsa.Ops.restrict x keep, !deletions)
  end

let num_states = Fsa.Automaton.num_states
