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
  let rev_states = ref [] in
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
      rev_states := zeta :: !rev_states;
      Queue.add (zeta, k) queue;
      k
    end
  in
  ignore (intern oracle.start : int);
  let split_memo =
    Subset.memo_splitter ?runtime man ~roots:rs ~alphabet
      ~ns_cube:oracle.ns_cube
  in
  (* split into (guard, successor) classes and rename each successor back
     to current-state space, pinning it before any further allocation *)
  let to_current = O.renaming man oracle.rename in
  let split ~domain p =
    List.map
      (fun (g, s) -> (g, M.Roots.add rs (O.rename_by man s to_current)))
      (split_memo ~domain p)
  in
  let sink_used = Array.make (Array.length sinks) false in
  (* each state's arcs in emission order, states newest-first; sink
     destinations keep negative placeholders until the number of core
     states is known *)
  let rev_edges = ref [] in
  (* a completion guard lives only on the operand stack until here *)
  let complete guard j =
    if guard = M.zero then []
    else begin
      pin guard;
      sink_used.(j) <- true;
      [ (guard, -1 - j) ]
    end
  in
  enter Runtime.Subset;
  while not (Queue.is_empty queue) do
    tick ();
    Option.iter (fun rt -> Runtime.note_subset_states rt !count) runtime;
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
    let arcs = split ~domain p in
    let covered = O.bor man domain q in
    M.stack_push man covered;
    let to_dca = O.bnot man covered in
    M.stack_drop man 4;
    (* the split's guards are pinned by its memo *)
    let classes = List.map (fun (guard, z) -> (guard, intern z)) arcs in
    let dcn_arc = complete q dcn in
    let dca_arc = complete to_dca dca in
    rev_edges := (classes @ dcn_arc @ dca_arc) :: !rev_edges
  done;
  let n_core = !count in
  (* the sinks some arc reached follow the core states, DCN before DCA,
     each with a guard-[one] self-loop *)
  let used = List.filter (Array.get sink_used) [ dcn; dca ] in
  let sink_id = Array.make (Array.length sinks) (-1) in
  List.iteri (fun i j -> sink_id.(j) <- n_core + i) used;
  let names =
    Array.append
      (Array.init n_core (fun k -> "Z" ^ string_of_int k))
      (Array.of_list (List.map (fun j -> fst sinks.(j)) used))
  in
  (* queried in state order while the roots are still held, so the state
     BDDs are live *)
  let accepting =
    Array.append
      (Array.map oracle.is_accepting (Array.of_list (List.rev !rev_states)))
      (Array.of_list (List.map (fun j -> snd sinks.(j)) used))
  in
  let resolve (g, d) = (g, if d >= 0 then d else sink_id.(-1 - d)) in
  let edges =
    Array.append
      (Array.of_list (List.rev_map (List.map resolve) !rev_edges))
      (Array.of_list (List.map (fun j -> [ (M.one, sink_id.(j)) ]) used))
  in
  (* the automaton outlives this root set: protect each distinct guard
     once for the manager's lifetime (constants are no-ops) *)
  let guards =
    Array.of_list (List.concat_map (List.map fst) (Array.to_list edges))
  in
  Array.sort Int.compare guards;
  Array.iteri
    (fun i g -> if i = 0 || g <> guards.(i - 1) then M.protect man g)
    guards;
  ( { Fsa.Automaton.man;
      alphabet = List.sort_uniq compare alphabet;
      initial = 0;
      accepting;
      edges;
      names },
    n_core )

let to_automaton x = x
