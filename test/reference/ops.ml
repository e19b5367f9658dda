(* The explicit operators of the paper's generic Algorithm 1 that the
   library folds into its partitioned subset construction. Those that
   create fresh guards run frozen and pin the result's guards before
   returning, as Fsa.Ops does. *)

module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton
module F = Fsa.Ops

let complement (t : A.t) =
  if not (A.is_deterministic t) then
    invalid_arg "Ops.complement: automaton not deterministic";
  if not (A.is_complete t) then
    invalid_arg "Ops.complement: automaton not complete";
  { t with accepting = Array.map not t.accepting }

let product (a : A.t) (b : A.t) =
  if a.man != b.man then invalid_arg "Ops.product: distinct managers";
  let man = a.man in
  M.with_frozen man @@ fun () ->
  let alphabet = List.sort_uniq compare (a.alphabet @ b.alphabet) in
  let index = Hashtbl.create 64 in
  let rev_pairs = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern pair =
    match Hashtbl.find_opt index pair with
    | Some k -> k
    | None ->
      let k = !count in
      incr count;
      Hashtbl.replace index pair k;
      rev_pairs := pair :: !rev_pairs;
      Queue.add pair queue;
      k
  in
  let initial = intern (a.initial, b.initial) in
  let edges_acc = ref [] in
  while not (Queue.is_empty queue) do
    let (sa, sb) as pair = Queue.pop queue in
    let k = Hashtbl.find index pair in
    List.iter
      (fun (ga, da) ->
        List.iter
          (fun (gb, db) ->
            let g = O.band man ga gb in
            if g <> M.zero then
              edges_acc := (k, g, intern (da, db)) :: !edges_acc)
          b.edges.(sb))
      a.edges.(sa)
  done;
  let n = !count in
  let pairs = Array.of_list (List.rev !rev_pairs) in
  let accepting =
    Array.map (fun (sa, sb) -> a.accepting.(sa) && b.accepting.(sb)) pairs
  in
  let names =
    Array.map (fun (sa, sb) -> a.names.(sa) ^ "|" ^ b.names.(sb)) pairs
  in
  let edges = Array.make n [] in
  List.iter (fun (k, g, d) -> edges.(k) <- (g, d) :: edges.(k)) !edges_acc;
  A.pin { A.man; alphabet; initial; accepting; edges; names }

let prefix_close (t : A.t) =
  if not t.accepting.(t.initial) then A.empty t.man ~alphabet:t.alphabet
  else F.trim (F.restrict t (Array.copy t.accepting))

let progressive ?(on_pass = fun () -> ()) (t : A.t) ~inputs =
  let man = t.man in
  M.with_frozen man @@ fun () ->
  let outputs = List.filter (fun v -> not (List.mem v inputs)) t.alphabet in
  let out_cube = O.cube_of_vars man outputs in
  let n = A.num_states t in
  let alive = Array.make n true in
  let ok s =
    let d =
      O.disj man
        (List.filter_map
           (fun (g, dst) -> if alive.(dst) then Some g else None)
           t.edges.(s))
    in
    O.exists man out_cube d = M.one
  in
  let changed = ref true in
  while !changed do
    on_pass ();
    changed := false;
    for s = 0 to n - 1 do
      if alive.(s) && not (ok s) then begin
        alive.(s) <- false;
        changed := true
      end
    done
  done;
  if not alive.(t.initial) then A.empty man ~alphabet:t.alphabet
  else F.trim (F.restrict t alive)

(* Split the alphabet space into classes on which a set of guards is
   constant; returns the non-zero classes. *)
let guard_classes man guards =
  let distinct = List.sort_uniq compare guards in
  List.fold_left
    (fun classes g ->
      List.concat_map
        (fun c ->
          let c1 = O.band man c g in
          let c0 = O.bdiff man c g in
          List.filter (fun x -> x <> M.zero) [ c1; c0 ])
        classes
      |> List.sort_uniq compare)
    [ M.one ] distinct

let determinize (t : A.t) =
  let man = t.man in
  M.with_frozen man @@ fun () ->
  let module Key = struct
    type t = int list (* sorted state set *)
  end in
  let index : (Key.t, int) Hashtbl.t = Hashtbl.create 64 in
  let rev_states = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern set =
    match Hashtbl.find_opt index set with
    | Some k -> k
    | None ->
      let k = !count in
      incr count;
      Hashtbl.replace index set k;
      rev_states := set :: !rev_states;
      Queue.add set queue;
      k
  in
  let initial = intern [ t.initial ] in
  let edges_acc = ref [] in
  while not (Queue.is_empty queue) do
    let set = Queue.pop queue in
    let k = Hashtbl.find index set in
    let outgoing = List.concat_map (fun s -> t.edges.(s)) set in
    let classes = guard_classes man (List.map fst outgoing) in
    (* group classes by successor subset *)
    let by_succ = Hashtbl.create 8 in
    List.iter
      (fun c ->
        let succ =
          List.sort_uniq compare
            (List.filter_map
               (fun (g, d) -> if O.band man g c <> M.zero then Some d else None)
               outgoing)
        in
        if succ <> [] then
          match Hashtbl.find_opt by_succ succ with
          | Some g0 -> Hashtbl.replace by_succ succ (O.bor man g0 c)
          | None -> Hashtbl.replace by_succ succ c)
      classes;
    Hashtbl.iter
      (fun succ guard -> edges_acc := (k, guard, intern succ) :: !edges_acc)
      by_succ
  done;
  let n = !count in
  let states = Array.of_list (List.rev !rev_states) in
  let accepting =
    Array.map (fun set -> List.exists (fun s -> t.accepting.(s)) set) states
  in
  let names =
    Array.map
      (fun set ->
        "{" ^ String.concat "," (List.map (fun s -> t.names.(s)) set) ^ "}")
      states
  in
  let edges = Array.make n [] in
  List.iter (fun (k, g, d) -> edges.(k) <- (g, d) :: edges.(k)) !edges_acc;
  A.pin { t with initial; accepting; edges; names }

let hide (t : A.t) vars =
  M.with_frozen t.man @@ fun () ->
  let cube = O.cube_of_vars t.man vars in
  let hidden = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace hidden v ()) vars;
  let alphabet = List.filter (fun v -> not (Hashtbl.mem hidden v)) t.alphabet in
  F.normalize_edges
    { t with
      alphabet;
      edges =
        Array.map
          (List.map (fun (g, d) -> (O.exists t.man cube g, d)))
          t.edges }

let expand (t : A.t) vars =
  { t with alphabet = List.sort_uniq compare (vars @ t.alphabet) }

let change_support (t : A.t) vars =
  let target = List.sort_uniq compare vars in
  let extra = List.filter (fun v -> not (List.mem v target)) t.alphabet in
  let missing = List.filter (fun v -> not (List.mem v t.alphabet)) target in
  let t = if extra = [] then t else hide t extra in
  if missing = [] then t else expand t missing
