module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

let c_deletions = Obs.Counter.make "csf.worklist_deletions"

(* CSF extraction as a worklist over the engine's arc arena.

   PrefixClose seeds the alive set with the accepting states; Progressive
   deletes states that are not input-progressive over the [u] variables
   with respect to the current alive set. The reverse-arc index is built
   once; every alive state is examined once, and a deletion re-enqueues
   only the deleted state's predecessors (the only states whose
   progressiveness it can change). Each arc is therefore re-traversed at
   most once per deletion of its destination — O(arcs + deletions ×
   max-in-degree-neighbourhood) — and the result is converted to
   [Fsa.Automaton] only after the final trim. *)
let of_arena ?runtime (p : Problem.t) (a : Engine.arena) =
  Option.iter (fun rt -> Runtime.enter_phase rt Runtime.Csf) runtime;
  let tick = Runtime.ticker runtime in
  let man = a.Engine.man in
  let n = Engine.num_states a in
  let m = Engine.num_arcs a in
  let deletions = ref 0 in
  let inputs = Problem.x_input_vars p in
  (* the loop holds guard disjunctions only transiently but walks ids while
     allocating; run frozen *)
  M.with_frozen man @@ fun () ->
  let outputs =
    List.filter (fun v -> not (List.mem v inputs)) a.Engine.alphabet
  in
  let out_cube = O.cube_of_vars man outputs in
  (* forward and reverse adjacency over the flat arc arrays, in CSR form,
     built once, before any deletion. The engine emits arcs by ascending
     source (see [Engine.arena]), so the arcs of state [s] are already the
     index range [fwd_off.(s)] to [fwd_off.(s + 1) - 1]; the predecessor
     sources are grouped by destination. *)
  let fwd_off = Array.make (n + 1) 0 in
  let rev_off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    fwd_off.(a.Engine.arc_src.(i)) <- fwd_off.(a.Engine.arc_src.(i)) + 1;
    rev_off.(a.Engine.arc_dst.(i)) <- rev_off.(a.Engine.arc_dst.(i)) + 1
  done;
  let acc_f = ref 0 and acc_r = ref 0 in
  for s = 0 to n do
    let f = fwd_off.(s) and r = rev_off.(s) in
    fwd_off.(s) <- !acc_f;
    rev_off.(s) <- !acc_r;
    acc_f := !acc_f + f;
    acc_r := !acc_r + r
  done;
  let rev_src = Array.make m 0 in
  let rev_fill = Array.copy rev_off in
  for i = 0 to m - 1 do
    let s = a.Engine.arc_src.(i) and d = a.Engine.arc_dst.(i) in
    rev_src.(rev_fill.(d)) <- s;
    rev_fill.(d) <- rev_fill.(d) + 1
  done;
  (* prefix closure: only accepting states can survive *)
  let alive = Array.copy a.Engine.accepting in
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
  (* a state is progressive when for every input assignment some output
     leads to an alive state *)
  let progressive s =
    let d = ref M.zero in
    for i = fwd_off.(s) to fwd_off.(s + 1) - 1 do
      if alive.(a.Engine.arc_dst.(i)) then
        d := O.bor man !d a.Engine.arc_guard.(i)
    done;
    O.exists man out_cube !d = M.one
  in
  while not (Queue.is_empty queue) do
    tick ();
    let s = Queue.pop queue in
    queued.(s) <- false;
    if alive.(s) && not (progressive s) then begin
      alive.(s) <- false;
      incr deletions;
      if !Obs.on then Obs.Counter.bump c_deletions;
      for j = rev_off.(s) to rev_off.(s + 1) - 1 do
        push rev_src.(j)
      done
    end
  done;
  if not alive.(a.Engine.initial) then
    (A.empty man ~alphabet:a.Engine.alphabet, !deletions)
  else begin
    (* trim to the states reachable through alive states, renumbered in
       arena order (remap keeps relative order, so this matches the old
       prefix_close/progressive/trim composition state for state) *)
    let seen = Array.make n false in
    let stack = ref [ a.Engine.initial ] in
    seen.(a.Engine.initial) <- true;
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | s :: rest ->
        stack := rest;
        for i = fwd_off.(s) to fwd_off.(s + 1) - 1 do
          let d = a.Engine.arc_dst.(i) in
          if alive.(d) && not (seen.(d)) then begin
            seen.(d) <- true;
            stack := d :: !stack
          end
        done
    done;
    let index = Array.make n (-1) in
    let count = ref 0 in
    for s = 0 to n - 1 do
      if seen.(s) then begin
        index.(s) <- !count;
        incr count
      end
    done;
    let n' = !count in
    let accepting = Array.make n' true in
    let names = Array.make n' "" in
    let edges = Array.make n' [] in
    for s = n - 1 downto 0 do
      if seen.(s) then begin
        names.(index.(s)) <- a.Engine.names.(s);
        let out = ref [] in
        for i = fwd_off.(s + 1) - 1 downto fwd_off.(s) do
          let d = a.Engine.arc_dst.(i) in
          if seen.(d) then out := (a.Engine.arc_guard.(i), index.(d)) :: !out
        done;
        edges.(index.(s)) <- !out
      end
    done;
    ( A.make man ~alphabet:a.Engine.alphabet
        ~initial:index.(a.Engine.initial) ~accepting ~edges ~names (),
      !deletions )
  end

let num_states = Fsa.Automaton.num_states
