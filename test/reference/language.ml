(* Word-level queries over explicit automata: acceptance of one word and
   bounded enumeration of the accepted words (bodies as they stood in
   Fsa.Language and Fsa.Automaton), and Fsa.Language's exact queries
   widened to nondeterministic automata over different alphabets. *)

module M = Bdd.Manager
module O = Bdd.Ops
module A = Fsa.Automaton

let successors (t : A.t) s symbol_cube =
  List.filter_map
    (fun (g, d) ->
      if O.band t.man g symbol_cube <> M.zero then Some d else None)
    t.edges.(s)

let accepts (t : A.t) word =
  (* word cubes are caller-owned and unpinned: run frozen *)
  M.with_frozen t.man @@ fun () ->
  let step states cube =
    List.sort_uniq compare
      (List.concat_map (fun s -> successors t s cube) states)
  in
  let final = List.fold_left step [ t.initial ] word in
  List.exists (fun s -> t.accepting.(s)) final

let symbols (t : A.t) =
  M.with_frozen t.man @@ fun () ->
  let vars = t.alphabet in
  let n = List.length vars in
  if n > 16 then invalid_arg "Language.symbols: alphabet too large";
  List.init (1 lsl n) (fun bits ->
      O.cube_of_literals t.man
        (List.mapi (fun k v -> (v, bits land (1 lsl k) <> 0)) vars))

let accepted_words (t : A.t) ~max_len =
  let syms = symbols t in
  let rec go states word len acc =
    let acc =
      if List.exists (fun s -> t.accepting.(s)) states then
        List.rev word :: acc
      else acc
    in
    if len = max_len then acc
    else
      List.fold_left
        (fun acc cube ->
          let next =
            List.sort_uniq compare
              (List.concat_map (fun s -> successors t s cube) states)
          in
          if next = [] then acc else go next (cube :: word) (len + 1) acc)
        acc syms
  in
  List.sort compare (go [ t.initial ] [] 0 [])

(* Fsa.Language takes deterministic automata over one alphabet: expand
   both to the union of the alphabets, then determinize *)
let prepare (a : A.t) (b : A.t) =
  let alphabet = List.sort_uniq compare (a.alphabet @ b.alphabet) in
  let norm t = Ops.determinize (Ops.change_support t alphabet) in
  (norm a, norm b)

let equivalent a b =
  let a, b = prepare a b in
  Fsa.Language.equivalent a b

let subset a b =
  let a, b = prepare a b in
  Fsa.Language.subset a b

let counterexample a b =
  let a, b = prepare a b in
  Fsa.Language.counterexample a b
