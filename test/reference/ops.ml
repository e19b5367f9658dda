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
