module M = Bdd.Manager
module O = Bdd.Ops

(* The engine is the single registration point of the construction-wide
   counters both flows bump; the CI guards that these names are not
   re-registered elsewhere in lib/. *)
let c_expanded = Obs.Counter.make "subset.states_expanded"
let c_image = Obs.Counter.make "image.calls"

type oracle = {
  start : int;
  ns_cube : int;
  rename : (int * int) list;
  relation : int -> int * int;
  is_accepting : int -> bool;
}

(* The completion sinks, in the order they follow the core states: DCN
   takes the symbols under Q_ζ, DCA those neither P_ζ nor Q_ζ covers. *)
let sinks = [| ("DCN", false); ("DCA", true) |]
let dcn = 0
and dca = 1

let note_image ?runtime () =
  if !Obs.on then Obs.Counter.bump c_image;
  Option.iter Runtime.tick_image runtime

let run ?runtime ?on_state man ~alphabet make_oracle =
  let enter ph = Option.iter (fun rt -> Runtime.enter_phase rt ph) runtime in
  let tick = Runtime.ticker runtime in
  let notify k = match on_state with Some f -> f k | None -> () in
  (* Everything the construction keeps across image computations — the
     oracle's relations, the interned subset states, the arc guards and
     the split-memo arcs — lives in one root set scoped to the run, so
     the manager is free to collect dead image intermediates at any
     allocation point in between. *)
  M.with_roots man @@ fun rs ->
  let pin id = ignore (M.Roots.add rs id : int) in
  enter Runtime.Build;
  let oracle = make_oracle rs in
  pin oracle.ns_cube;
  (* Subset states are interned by their (canonical) BDD. *)
  let index = Bdd.Idtbl.create 16 (-1) in
  (* the state BDDs by index, doubled when full *)
  let states = ref (Array.make 16 M.zero) in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern zeta =
    let k = Bdd.Idtbl.find index zeta in
    if k >= 0 then k
    else begin
      pin zeta;
      let k = !count in
      incr count;
      Bdd.Idtbl.replace index zeta k;
      if k = Array.length !states then begin
        let grown = Array.make (2 * k) M.zero in
        Array.blit !states 0 grown 0 k;
        states := grown
      end;
      !states.(k) <- zeta;
      Queue.add (zeta, k) queue;
      k
    end
  in
  ignore (intern oracle.start : int);
  let split_memo =
    Subset.memo_splitter ?runtime man ~roots:rs ~alphabet
      ~ns_cube:oracle.ns_cube
  in
  let to_current = O.renaming man oracle.rename in
  let sink_used = Array.make (Array.length sinks) false in
  (* each state's class arcs in emission order and its DCN and DCA guards
     ([M.zero] for none), states newest-first: the sinks' numbers are
     known only once the core states are *)
  let rev_edges = ref [] in
  (* a completion guard lives only on the operand stack until here *)
  let complete guard j =
    if guard <> M.zero then begin
      pin guard;
      sink_used.(j) <- true
    end;
    guard
  in
  enter Runtime.Subset;
  while not (Queue.is_empty queue) do
    tick ();
    (match runtime with
     | Some rt -> Runtime.note_subset_states rt !count
     | None -> ());
    let zeta, k = Queue.pop queue in
    if !Obs.on then Obs.Counter.bump c_expanded;
    notify k;
    (* P_ζ, Q_ζ and the intermediates below ride the operation stack: each
       is an operand of a later call, and any allocation may collect *)
    let p, q = oracle.relation zeta in
    M.stack_push man q;
    M.stack_push man p;
    let domain = O.exists man oracle.ns_cube p in
    M.stack_push man domain;
    (* split into (guard, successor) classes and rename each successor
       back to current-state space, interning it before the next rename
       allocates: [intern] pins a new state, an old one is pinned already.
       The split's guards are pinned by its memo *)
    let classes =
      List.map
        (fun (guard, s) -> (guard, intern (O.rename_by man s to_current)))
        (split_memo ~domain p)
    in
    let covered = O.bor man domain q in
    M.stack_push man covered;
    let to_dca = O.bnot man covered in
    M.stack_drop man 4;
    let to_dcn = complete q dcn in
    let to_dca = complete to_dca dca in
    rev_edges := (classes, to_dcn, to_dca) :: !rev_edges
  done;
  let n_core = !count in
  (* the sinks some arc reached follow the core states, DCN before DCA,
     each with a guard-[one] self-loop: a used DCN is state [n_core], a
     used DCA the last state *)
  let n =
    Array.fold_left (fun total used -> if used then total + 1 else total)
      n_core sink_used
  in
  let sink_state j = if j = dcn then n_core else n - 1 in
  let names = Array.make n "" and accepting = Array.make n false in
  let edges = Array.make n [] in
  Array.iteri
    (fun j (name, acc) ->
      if sink_used.(j) then begin
        let s = sink_state j in
        names.(s) <- name;
        accepting.(s) <- acc;
        edges.(s) <- [ (M.one, s) ]
      end)
    sinks;
  for k = 0 to n_core - 1 do
    names.(k) <- "Z" ^ string_of_int k;
    (* queried in state order while the roots are still held, so the state
       BDDs are live *)
    accepting.(k) <- oracle.is_accepting !states.(k)
  done;
  let sink_arc j g tail =
    if g = M.zero then tail else (g, sink_state j) :: tail
  in
  let k = ref n_core in
  List.iter
    (fun (classes, to_dcn, to_dca) ->
      decr k;
      edges.(!k) <-
        (match sink_arc dcn to_dcn (sink_arc dca to_dca []) with
         | [] -> classes
         | tail -> classes @ tail))
    !rev_edges;
  (* the automaton outlives this root set: protect each distinct guard
     once for the manager's lifetime (constants are no-ops) *)
  let guards =
    Array.make
      (Array.fold_left (fun total arcs -> total + List.length arcs) 0 edges)
      M.one
  in
  let i = ref 0 in
  Array.iter
    (List.iter (fun (g, _) ->
         guards.(!i) <- g;
         incr i))
    edges;
  Array.sort Int.compare guards;
  Array.iteri
    (fun i g -> if i = 0 || g <> guards.(i - 1) then M.protect man g)
    guards;
  ( { Fsa.Automaton.man;
      alphabet = List.sort_uniq Int.compare alphabet;
      initial = 0;
      accepting;
      edges;
      names },
    n_core )

let to_automaton x = x
