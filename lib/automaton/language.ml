module M = Bdd.Manager
module O = Bdd.Ops
module A = Automaton

(* Pair-wise traversal of two deterministic complete automata over the same
   alphabet, visiting every reachable pair once. *)
let product_pairs (a : A.t) (b : A.t) =
  let man = a.man in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let trace = Hashtbl.create 64 in
  Hashtbl.replace seen (a.initial, b.initial) ();
  Queue.add (a.initial, b.initial) queue;
  let pairs = ref [] in
  while not (Queue.is_empty queue) do
    let (sa, sb) as pair = Queue.pop queue in
    pairs := pair :: !pairs;
    List.iter
      (fun (ga, da) ->
        List.iter
          (fun (gb, db) ->
            let g = O.band man ga gb in
            if g <> M.zero && not (Hashtbl.mem seen (da, db)) then begin
              Hashtbl.replace seen (da, db) ();
              Hashtbl.replace trace (da, db) (pair, g);
              Queue.add (da, db) queue
            end)
          b.edges.(sb))
      a.edges.(sa)
  done;
  (List.rev !pairs, trace)

let prepare (a : A.t) (b : A.t) =
  if a.man != b.man then invalid_arg "Language: distinct managers";
  if List.sort_uniq Int.compare a.alphabet
     <> List.sort_uniq Int.compare b.alphabet
  then invalid_arg "Language: distinct alphabets";
  if not (A.is_deterministic a && A.is_deterministic b) then
    invalid_arg "Language: automaton not deterministic";
  (Ops.complete a, Ops.complete b)

let find_mismatch bad (a : A.t) (b : A.t) =
  (* the pair trace holds unpinned guard ids across further allocation *)
  M.with_frozen a.man @@ fun () ->
  let a, b = prepare a b in
  let pairs, trace = product_pairs a b in
  let mismatch =
    List.find_opt
      (fun (sa, sb) -> bad a.accepting.(sa) b.accepting.(sb))
      pairs
  in
  match mismatch with
  | None -> None
  | Some pair ->
    (* Walk the trace back to the initial pair to produce a witness word. *)
    let rec unwind pair acc =
      match Hashtbl.find_opt trace pair with
      | None -> acc
      | Some (prev, guard) ->
        let word_symbol =
          match O.pick_minterm a.man guard a.alphabet with
          | Some lits -> O.cube_of_literals a.man lits
          | None -> assert false
        in
        unwind prev (word_symbol :: acc)
    in
    Some (unwind pair [])

let equivalent a b =
  find_mismatch (fun x y -> x <> y) a b = None

let subset a b = find_mismatch (fun x y -> x && not y) a b = None

let counterexample a b = find_mismatch (fun x y -> x && not y) a b
